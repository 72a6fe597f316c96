package transform

import (
	"bytes"
	"strings"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/vm"
)

// figure2Source is the paper's Figure 2 sample class X with enough
// supporting classes to execute it.
const figure2Source = `
class Y {
    static int K = 17;
    Y() {}
    int n(long j) { return (int) j + 1; }
}
class Z {
    int seed;
    Z(int seed) { this.seed = seed; }
    int q(int i) { return seed + i; }
}
class X {
    private Y y;
    X(Y y) { this.y = y; }
    protected int m(long j) { return y.n(j); }
    static final Z z = new Z(Y.K);
    static int p(int i) { return z.q(i); }
}
class Main {
    static void main() {
        X x = new X(new Y());
        sys.System.println("m=" + x.m(41));
        sys.System.println("p=" + X.p(3));
    }
}`

func compileFigure2(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := minijava.Compile(figure2Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func transformFigure2(t *testing.T) *Result {
	t.Helper()
	res, err := Transform(compileFigure2(t), Options{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return res
}

// runOriginal runs the untransformed program and returns output.
func runOriginal(t *testing.T, prog *ir.Program, mainClass string) string {
	t.Helper()
	var out bytes.Buffer
	machine := vm.MustNew(prog, vm.WithOutput(&out))
	if err := machine.RunMain(mainClass); err != nil {
		t.Fatalf("run original: %v", err)
	}
	return out.String()
}

// runTransformedLocal runs the transformed program with all-local policy.
func runTransformedLocal(t *testing.T, res *Result, mainClass string) string {
	t.Helper()
	var out bytes.Buffer
	machine := vm.MustNew(res.Program, vm.WithOutput(&out))
	BindLocal(machine, res)
	if err := RunMain(machine, res, mainClass); err != nil {
		t.Fatalf("run transformed: %v", err)
	}
	return out.String()
}

func TestAnalysisFigure2(t *testing.T) {
	prog := compileFigure2(t)
	a := Analyze(prog)
	for _, name := range []string{"X", "Y", "Z", "Main"} {
		if !a.Transformable(name) {
			t.Errorf("%s should be transformable: %v", name, a.Cause(name))
		}
	}
	if a.Transformable(ir.ObjectClass) {
		t.Error("sys.Object must not be transformable")
	}
	if a.Transformable("sys.Exception") {
		t.Error("sys.Exception must not be transformable")
	}
}

func TestGeneratedFamilyForX(t *testing.T) {
	res := transformFigure2(t)
	p := res.Program
	want := []string{
		"X_O_Int", "X_O_Local", "X_C_Int", "X_C_Local", "X_O_Factory", "X_C_Factory",
		"X_O_Proxy", "X_C_Proxy",
	}
	for _, name := range want {
		if !p.Has(name) {
			t.Errorf("missing generated class %s", name)
		}
	}
	if p.Has("X") {
		t.Error("original class X should have been replaced")
	}
	if !p.Has(ir.ObjectClass) {
		t.Error("system classes must be carried over")
	}
}

// TestFigure3Shape checks the generated X_O_Int and X_O_Local against
// the members the paper's Figure 3 lists.
func TestFigure3Shape(t *testing.T) {
	res := transformFigure2(t)
	oint := res.Program.Class("X_O_Int")
	if oint == nil || !oint.IsInterface {
		t.Fatal("X_O_Int missing or not an interface")
	}
	// Y_O_Int get_y(); void set_y(Y_O_Int); int m(long).
	get := oint.Method("get_y", 0)
	if get == nil || get.Return.Name != "Y_O_Int" {
		t.Fatalf("X_O_Int.get_y wrong: %+v", get)
	}
	set := oint.Method("set_y", 1)
	if set == nil || set.Params[0].Name != "Y_O_Int" {
		t.Fatalf("X_O_Int.set_y wrong: %+v", set)
	}
	m := oint.Method("m", 1)
	if m == nil || m.Return.Kind != ir.KindInt || m.Params[0].Kind != ir.KindInt {
		t.Fatalf("X_O_Int.m wrong: %+v", m)
	}

	olocal := res.Program.Class("X_O_Local")
	if olocal == nil {
		t.Fatal("X_O_Local missing")
	}
	if len(olocal.Interfaces) != 1 || olocal.Interfaces[0] != "X_O_Int" {
		t.Fatalf("X_O_Local interfaces: %v", olocal.Interfaces)
	}
	// Private field y of interface type, public default ctor.
	f := olocal.Field("y")
	if f == nil || f.Type.Name != "Y_O_Int" || f.Access != ir.AccessPrivate {
		t.Fatalf("X_O_Local.y wrong: %+v", f)
	}
	ctor := olocal.Method(ir.ConstructorName, 0)
	if ctor == nil || ctor.Access != ir.AccessPublic {
		t.Fatal("X_O_Local missing public default constructor")
	}
	// m's body must use interface calls only: no GetField/PutField on X,
	// per the figure's "get_y() and n(j) below are interface calls".
	mImpl := olocal.Method("m", 1)
	if mImpl == nil {
		t.Fatal("X_O_Local.m missing")
	}
	sawGetY, sawN := false, false
	for _, in := range mImpl.Code {
		if in.Op == ir.OpGetField {
			t.Errorf("X_O_Local.m contains direct field access: %v", in)
		}
		if in.Op == ir.OpInvokeInterface && in.Owner == "X_O_Int" && in.Member == "get_y" {
			sawGetY = true
		}
		if in.Op == ir.OpInvokeInterface && in.Owner == "Y_O_Int" && in.Member == "n" {
			sawN = true
		}
	}
	if !sawGetY || !sawN {
		t.Errorf("X_O_Local.m should call get_y() and n() via interfaces (got get_y=%v n=%v)\n%s",
			sawGetY, sawN, ir.Sprint(olocal, ir.PrintOptions{Code: true}))
	}
	// The proxies implement the same interface with native methods.
	proxy := res.Program.Class("X_O_Proxy")
	if proxy == nil {
		t.Fatal("X_O_Proxy missing")
	}
	for _, name := range []string{"get_y", "m"} {
		pm := proxy.Method(name, 0)
		if name == "m" {
			pm = proxy.Method("m", 1)
		}
		if pm == nil || !pm.Native {
			t.Errorf("proxy method %s missing or not native", name)
		}
	}
}

// TestFigure4Shape checks the statics transformation against Figure 4.
func TestFigure4Shape(t *testing.T) {
	res := transformFigure2(t)
	cint := res.Program.Class("X_C_Int")
	if cint == nil || !cint.IsInterface {
		t.Fatal("X_C_Int missing or not an interface")
	}
	if m := cint.Method("get_z", 0); m == nil || m.Return.Name != "Z_O_Int" {
		t.Fatalf("X_C_Int.get_z wrong: %+v", m)
	}
	if m := cint.Method("p", 1); m == nil || m.Static {
		t.Fatalf("X_C_Int.p must be a non-static declaration: %+v", m)
	}

	clocal := res.Program.Class("X_C_Local")
	if clocal == nil {
		t.Fatal("X_C_Local missing")
	}
	// Singleton declarations.
	me := clocal.Field("me")
	if me == nil || !me.Static || me.Type.Name != "X_C_Int" {
		t.Fatalf("X_C_Local.me wrong: %+v", me)
	}
	if m := clocal.Method("get_me", 0); m == nil || !m.Static {
		t.Fatal("X_C_Local.get_me missing or not static")
	}
	// p became an instance method using get_z() through this.
	p := clocal.Method("p", 1)
	if p == nil || p.Static {
		t.Fatal("X_C_Local.p missing or still static")
	}
	sawGetZ := false
	for _, in := range p.Code {
		if in.Op == ir.OpInvokeInterface && in.Owner == "X_C_Int" && in.Member == "get_z" {
			sawGetZ = true
		}
	}
	if !sawGetZ {
		t.Errorf("X_C_Local.p should read z via get_z():\n%s",
			ir.Sprint(clocal, ir.PrintOptions{Code: true}))
	}
}

// TestFigure5Shape checks the factories against Figure 5.
func TestFigure5Shape(t *testing.T) {
	res := transformFigure2(t)
	ofac := res.Program.Class("X_O_Factory")
	if ofac == nil {
		t.Fatal("X_O_Factory missing")
	}
	mk := ofac.Method("make", 0)
	if mk == nil || !mk.Static || !mk.Native || mk.Return.Name != "X_O_Int" {
		t.Fatalf("X_O_Factory.make wrong: %+v", mk)
	}
	// init(X_O_Int that, Y_O_Int y) performing that.set_y(y).
	init := ofac.Method("init", 2)
	if init == nil || !init.Static {
		t.Fatal("X_O_Factory.init missing")
	}
	if init.Params[0].Name != "X_O_Int" || init.Params[1].Name != "Y_O_Int" {
		t.Fatalf("X_O_Factory.init params: %v", init.Params)
	}
	sawSetY := false
	for _, in := range init.Code {
		if in.Op == ir.OpInvokeInterface && in.Owner == "X_O_Int" && in.Member == "set_y" {
			sawSetY = true
		}
		if in.Op == ir.OpInvokeSpecial {
			t.Errorf("init should not contain constructor calls: %v", in)
		}
	}
	if !sawSetY {
		t.Errorf("X_O_Factory.init should call that.set_y:\n%s",
			ir.Sprint(ofac, ir.PrintOptions{Code: true}))
	}

	cfac := res.Program.Class("X_C_Factory")
	if cfac == nil {
		t.Fatal("X_C_Factory missing")
	}
	disc := cfac.Method("discover", 0)
	if disc == nil || !disc.Static || !disc.Native || disc.Return.Name != "X_C_Int" {
		t.Fatalf("X_C_Factory.discover wrong: %+v", disc)
	}
	// clinit(that) builds Z via Z_O_Factory and reads Y.K via
	// Y_C_Factory.discover().get_K() — exactly Figure 5's body.
	cl := cfac.Method("clinit", 1)
	if cl == nil {
		t.Fatal("X_C_Factory.clinit missing")
	}
	var sawMake, sawInit, sawGetK, sawSetZ bool
	for _, in := range cl.Code {
		if in.Op == ir.OpInvokeStatic && in.Owner == "Z_O_Factory" && in.Member == "make" {
			sawMake = true
		}
		if in.Op == ir.OpInvokeStatic && in.Owner == "Z_O_Factory" && in.Member == "init" {
			sawInit = true
		}
		if in.Op == ir.OpInvokeStatic && in.Owner == "Y_C_Factory" && in.Member == "get_K" {
			sawGetK = true
		}
		if in.Op == ir.OpInvokeInterface && in.Owner == "X_C_Int" && in.Member == "set_z" {
			sawSetZ = true
		}
	}
	if !sawMake || !sawInit || !sawGetK || !sawSetZ {
		t.Errorf("clinit shape wrong (make=%v init=%v getK=%v setZ=%v):\n%s",
			sawMake, sawInit, sawGetK, sawSetZ, ir.Sprint(cfac, ir.PrintOptions{Code: true}))
	}
}

// TestSemanticEquivalenceLocal is the paper's §4 claim: the transformed
// program executed within a single address space behaves identically.
func TestSemanticEquivalenceLocal(t *testing.T) {
	prog := compileFigure2(t)
	orig := runOriginal(t, prog, "Main")
	res := transformFigure2(t)
	trans := runTransformedLocal(t, res, "Main")
	if orig != trans {
		t.Fatalf("behaviour diverged:\noriginal:    %q\ntransformed: %q", orig, trans)
	}
	if want := "m=42\np=20\n"; orig != want {
		t.Fatalf("unexpected baseline output %q", orig)
	}
}

// TestSemanticEquivalenceSuite runs a battery of programs through both
// pipelines and requires identical output.
func TestSemanticEquivalenceSuite(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"fields and loops", `
class Acc {
    int total;
    Acc() { this.total = 0; }
    void add(int x) { total = total + x; }
    int get() { return total; }
}
class Main {
    static void main() {
        Acc a = new Acc();
        for (int i = 1; i <= 10; i = i + 1) { a.add(i); }
        sys.System.println("total=" + a.get());
    }
}`},
		{"shared reference figure1", `
class C {
    int state;
    C(int s) { this.state = s; }
    int bump() { state = state + 1; return state; }
}
class A {
    C c;
    A(C c) { this.c = c; }
    int use() { return c.bump(); }
}
class B {
    C c;
    B(C c) { this.c = c; }
    int use() { return c.bump(); }
}
class Main {
    static void main() {
        C shared = new C(100);
        A a = new A(shared);
        B b = new B(shared);
        sys.System.println("a=" + a.use());
        sys.System.println("b=" + b.use());
        sys.System.println("a=" + a.use());
        sys.System.println("final=" + shared.state);
    }
}`},
		{"statics across classes", `
class Config {
    static int base = 1000;
    static int scale(int x) { return base + x; }
}
class User {
    int id;
    User(int id) { this.id = id; }
    int score() { return Config.scale(id); }
}
class Main {
    static void main() {
        User u = new User(5);
        sys.System.println("s1=" + u.score());
        Config.base = 2000;
        sys.System.println("s2=" + u.score());
        sys.System.println("direct=" + Config.scale(1));
    }
}`},
		{"inheritance", `
class Shape {
    string name;
    Shape(string n) { this.name = n; }
    int area() { return 0; }
    string describe() { return name + ":" + area(); }
}
class Sq extends Shape {
    int side;
    Sq(int s) { super("sq"); this.side = s; }
    int area() { return side * side; }
}
class Main {
    static void main() {
        Shape s = new Sq(4);
        sys.System.println(s.describe());
        Shape p = new Shape("plain");
        sys.System.println(p.describe());
    }
}`},
		{"exceptions through transformed code", `
class Worker {
    int attempt(int x) {
        if (x == 0) { throw new sys.RuntimeException("zero"); }
        return 100 / x;
    }
}
class Main {
    static void main() {
        Worker w = new Worker();
        try {
            sys.System.println("r=" + w.attempt(4));
            sys.System.println("r=" + w.attempt(0));
        } catch (sys.RuntimeException e) {
            sys.System.println("caught " + e.getMessage());
        }
    }
}`},
		{"arrays of transformed classes", `
class Cell {
    int v;
    Cell(int v) { this.v = v; }
}
class Main {
    static void main() {
        Cell[] cells = new Cell[4];
        for (int i = 0; i < cells.length; i = i + 1) { cells[i] = new Cell(i * 10); }
        int sum = 0;
        for (int i = 0; i < cells.length; i = i + 1) { sum = sum + cells[i].v; }
        sys.System.println("sum=" + sum);
    }
}`},
		{"recursive structure", `
class Node {
    int v;
    Node next;
    Node(int v, Node next) { this.v = v; this.next = next; }
    int sum() {
        if (next == null) { return v; }
        return v + next.sum();
    }
}
class Main {
    static void main() {
        Node n = new Node(1, new Node(2, new Node(3, null)));
        sys.System.println("sum=" + n.sum());
    }
}`},
		{"casts and instanceof", `
class A2 { int tag() { return 1; } }
class B2 extends A2 { int tag() { return 2; } }
class Main {
    static void main() {
        A2 x = new B2();
        sys.System.println("tag=" + x.tag());
        sys.System.println("inst=" + (x instanceof B2));
        B2 y = (B2) x;
        sys.System.println("tag2=" + y.tag());
    }
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minijava.Compile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			orig := runOriginal(t, prog, "Main")
			res, err := Transform(prog, Options{})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			trans := runTransformedLocal(t, res, "Main")
			if orig != trans {
				t.Fatalf("behaviour diverged:\noriginal:    %q\ntransformed: %q", orig, trans)
			}
			if strings.TrimSpace(orig) == "" {
				t.Fatal("test program produced no output")
			}
		})
	}
}

func TestAnalysisRules(t *testing.T) {
	src := `
interface Greeter { string greet(); }
class UsesIface implements Greeter {
    string greet() { return "hi"; }
}
class HasNative {
    native int fast(int x);
}
class RefsNative {
    int go() { return 1; }
}
class MyError extends sys.Exception {
    MyError(string m) { super(m); }
}
class SuperOfBad {}
class BadChild extends SuperOfBad {
    native void n();
}
class Clean {
    int v;
    Clean(int v) { this.v = v; }
}`
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := Analyze(prog)

	cases := []struct {
		class  string
		trans  bool
		reason Reason
	}{
		{"Greeter", false, ReasonUserInterface},
		{"UsesIface", false, ReasonImplements},
		{"HasNative", false, ReasonNative},
		{"MyError", false, ReasonThrowable},
		{"BadChild", false, ReasonNative},
		{"SuperOfBad", false, ReasonSuperOfNonTransformable},
		{"Clean", true, ReasonNone},
	}
	for _, tc := range cases {
		got := a.Transformable(tc.class)
		if got != tc.trans {
			t.Errorf("%s: transformable=%v want %v (cause %v)", tc.class, got, tc.trans, a.Cause(tc.class))
			continue
		}
		if !tc.trans && a.Cause(tc.class).Reason != tc.reason {
			t.Errorf("%s: reason %v want %v", tc.class, a.Cause(tc.class).Reason, tc.reason)
		}
	}
}

func TestAnalysisReferencedClosure(t *testing.T) {
	src := `
class NativeHolder {
    native int n();
    Helper h;
}
class Helper {
    int x;
}
class Unrelated {
    int y;
}`
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := Analyze(prog)
	if a.Transformable("Helper") {
		t.Error("Helper is referenced by a native class; must be non-transformable")
	}
	if c := a.Cause("Helper"); c.Reason != ReasonReferenced || c.Via != "NativeHolder" {
		t.Errorf("Helper cause = %+v", c)
	}
	if !a.Transformable("Unrelated") {
		t.Errorf("Unrelated should stay transformable: %v", a.Cause("Unrelated"))
	}
}

func TestExcludePolicy(t *testing.T) {
	prog := compileFigure2(t)
	a := Analyze(prog, "Z")
	if a.Transformable("Z") {
		t.Error("Z was excluded")
	}
	if a.Cause("Z").Reason != ReasonExcluded {
		t.Errorf("Z cause: %v", a.Cause("Z"))
	}
	// X references Z, so X stays transformable (reference INTO a
	// non-transformable class is fine; only the reverse closes).
	if !a.Transformable("X") {
		t.Errorf("X should remain transformable: %v", a.Cause("X"))
	}
}

func TestStatsReport(t *testing.T) {
	prog := compileFigure2(t)
	a := Analyze(prog)
	s := a.Stats()
	if s.Total != prog.Len() {
		t.Errorf("total %d want %d", s.Total, prog.Len())
	}
	if s.Transformable+s.NonTransformable != s.Total {
		t.Error("stats do not add up")
	}
	if s.Transformable != 4 { // X, Y, Z, Main
		t.Errorf("transformable=%d want 4", s.Transformable)
	}
	if rep := a.Report(); !strings.Contains(rep, "system class") {
		t.Errorf("report missing system-class row:\n%s", rep)
	}
}

// TestGeneratedNameCollision: a transformable class whose generated
// family names a class the program already declares is refused with one
// error naming both source classes, whichever comes first.
func TestGeneratedNameCollision(t *testing.T) {
	const a, oint = "class A { int x; }", "class A_O_Int { native void f(); }"
	const main = "class Main { static void main() {} }"
	for _, tc := range []struct{ src, want string }{
		{a + oint + main, `transform: duplicate class "A_O_Int": generated for A and original class A_O_Int`},
		{oint + a + main, `transform: duplicate class "A_O_Int": original class A_O_Int and generated for A`},
	} {
		prog, err := minijava.Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Transform(prog, Options{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("Transform(%q) = %v, %v; want error %q", tc.src, res, err, tc.want)
		}
	}
}
