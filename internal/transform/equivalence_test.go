package transform

import (
	"testing"
	"testing/quick"

	"rafda/internal/corpus"
	"rafda/internal/minijava"
)

// TestEquivalenceAdvanced pushes less common shapes through the full
// pipeline: deep inheritance of transformed classes, abstract bases,
// cross-class static initialisation order, exceptions thrown in
// constructors and static initialisers, and policy exclusion mixing
// transformed and untransformed classes.
func TestEquivalenceAdvanced(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		exclude []string
	}{
		{"three-level inheritance", `
class L1 {
    int base;
    L1(int b) { this.base = b; }
    int value() { return base; }
    int describe() { return value() * 10; }
}
class L2 extends L1 {
    L2(int b) { super(b + 1); }
    int value() { return base * 2; }
}
class L3 extends L2 {
    L3(int b) { super(b + 1); }
    int value() { return base * 3; }
}
class Main {
    static void main() {
        L1 a = new L1(5);
        L1 b = new L2(5);
        L1 c = new L3(5);
        sys.System.println("" + a.describe() + "," + b.describe() + "," + c.describe());
    }
}`, nil},
		{"abstract base", `
abstract class Shape {
    string name;
    Shape(string n) { this.name = n; }
    abstract int area();
    string show() { return name + "=" + area(); }
}
class Sq extends Shape {
    int s;
    Sq(int s) { super("sq"); this.s = s; }
    int area() { return s * s; }
}
class Rect extends Shape {
    int w; int h;
    Rect(int w, int h) { super("rect"); this.w = w; this.h = h; }
    int area() { return w * h; }
}
class Main {
    static void main() {
        Shape[] shapes = new Shape[2];
        shapes[0] = new Sq(3);
        shapes[1] = new Rect(2, 5);
        for (int i = 0; i < shapes.length; i = i + 1) {
            sys.System.println(shapes[i].show());
        }
    }
}`, nil},
		{"static init chains", `
class A1 {
    static int x = 10;
}
class B1 {
    static int y = A1.x + 5;
    static int get() { return y; }
}
class C1 {
    static int z = B1.get() * 2;
}
class Main {
    static void main() {
        sys.System.println("" + C1.z + "," + B1.y + "," + A1.x);
        A1.x = 99;
        sys.System.println("" + C1.z); // already initialised, unchanged
    }
}`, nil},
		{"constructor throws", `
class Guard {
    int v;
    Guard(int v) {
        if (v < 0) { throw new sys.RuntimeException("neg " + v); }
        this.v = v;
    }
}
class Main {
    static void main() {
        Guard g = new Guard(1);
        sys.System.println("ok " + g.v);
        try {
            Guard bad = new Guard(-2);
            sys.System.println("not reached " + bad.v);
        } catch (sys.RuntimeException e) {
            sys.System.println("caught " + e.getMessage());
        }
    }
}`, nil},
		{"excluded class interops", `
class Kept {
    int mix(int a) { return a + 1; }
}
class Plain {
    int twice(int a) { return a * 2; }
}
class Main {
    static void main() {
        Kept k = new Kept();
        Plain p = new Plain();
        sys.System.println("" + p.twice(k.mix(20)));
    }
}`, []string{"Plain"}},
		{"mutual recursion across classes", `
class Even {
    static bool is(int n) {
        if (n == 0) { return true; }
        return Odd.is(n - 1);
    }
}
class Odd {
    static bool is(int n) {
        if (n == 0) { return false; }
        return Even.is(n - 1);
    }
}
class Main {
    static void main() {
        sys.System.println("" + Even.is(10) + "," + Odd.is(7) + "," + Even.is(3));
    }
}`, nil},
		{"object graph with nulls", `
class Link {
    Link next;
    int v;
    Link(int v, Link next) { this.v = v; this.next = next; }
    int count() {
        if (next == null) { return 1; }
        return 1 + next.count();
    }
    Link reverse(Link acc) {
        Link rest = next;
        next = acc;
        if (rest == null) { return this; }
        return rest.reverse(this);
    }
}
class Main {
    static void main() {
        Link l = new Link(1, new Link(2, new Link(3, null)));
        sys.System.println("n=" + l.count());
        Link r = l.reverse(null);
        sys.System.println("head=" + r.v + " n=" + r.count());
    }
}`, nil},
		{"failed static initialiser runs once", `
class Tries {
    static int n = 0;
}
class K {
    static int v = K.boot();
    static int boot() {
        Tries.n = Tries.n + 1;
        if (Tries.n == 1) { throw new sys.RuntimeException("first"); }
        return 20;
    }
}
class Main {
    static void main() {
        try {
            sys.System.println("first " + K.v);
        } catch (sys.RuntimeException e) {
            sys.System.println("caught " + e.getMessage());
        }
        sys.System.println("second " + K.v);
        K.boot();
        sys.System.println("tries " + Tries.n);
    }
}`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minijava.Compile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			orig := runOriginal(t, prog, "Main")
			res, err := Transform(prog, Options{Exclude: tc.exclude})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			trans := runTransformedLocal(t, res, "Main")
			if orig != trans {
				t.Fatalf("diverged:\noriginal:    %q\ntransformed: %q", orig, trans)
			}
		})
	}
}

// TestOIntInheritanceChain checks that extracted interfaces mirror the
// class hierarchy so interface references are substitutable along it.
func TestOIntInheritanceChain(t *testing.T) {
	prog, err := minijava.Compile(`
class Base { int b() { return 1; } }
class Mid extends Base { int m() { return 2; } }
class Leaf extends Mid { int l() { return 3; } }
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(prog, Options{Protocols: []string{"rrp"}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Program

	leafInt := p.Class("Leaf_O_Int")
	if len(leafInt.Interfaces) != 1 || leafInt.Interfaces[0] != "Mid_O_Int" {
		t.Fatalf("Leaf_O_Int extends %v", leafInt.Interfaces)
	}
	midInt := p.Class("Mid_O_Int")
	if len(midInt.Interfaces) != 1 || midInt.Interfaces[0] != "Base_O_Int" {
		t.Fatalf("Mid_O_Int extends %v", midInt.Interfaces)
	}
	// Local implementations mirror the class chain.
	if p.Class("Leaf_O_Local").Super != "Mid_O_Local" {
		t.Fatalf("Leaf_O_Local super %s", p.Class("Leaf_O_Local").Super)
	}
	// A Leaf reference is assignable to Base_O_Int via the interface
	// graph.
	if !p.AssignableTo("Leaf_O_Local", "Base_O_Int") {
		t.Fatal("Leaf_O_Local not assignable to Base_O_Int")
	}
	// The proxy implements the flattened interface: all three methods.
	proxy := p.Class("Leaf_O_Proxy_rrp")
	for _, m := range []string{"b", "m", "l"} {
		if proxy.Method(m, 0) == nil {
			t.Errorf("proxy missing %s", m)
		}
	}
	if !p.AssignableTo("Leaf_O_Proxy_rrp", "Base_O_Int") {
		t.Fatal("proxy not assignable up the interface chain")
	}
}

// TestAnalysisMonotonicityProperty: excluding additional classes can
// never make more classes transformable.
func TestAnalysisMonotonicityProperty(t *testing.T) {
	params := corpus.JDKLike()
	params.Classes = 300
	prog := corpus.Generate(params)
	names := prog.SortedNames()

	f := func(seed uint16) bool {
		// Pick a deterministic subset to exclude.
		var excl []string
		s := uint32(seed)
		for _, n := range names {
			s = s*1664525 + 1013904223
			if s%7 == 0 {
				excl = append(excl, n)
			}
		}
		base := Analyze(prog).Stats().Transformable
		more := Analyze(prog, excl...).Stats().Transformable
		return more <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTransformIdempotentOnNonTransformable: classes the analysis rejects
// appear verbatim in the output.
func TestTransformIdempotentOnNonTransformable(t *testing.T) {
	prog, err := minijava.Compile(`
class HasNative { native int n(); int plain() { return 2; } }
class Main { static void main() { } }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := prog.Class("HasNative")
	kept := res.Program.Class("HasNative")
	if kept == nil {
		t.Fatal("non-transformable class dropped")
	}
	if kept == orig {
		t.Fatal("output aliases input class (must be a clone)")
	}
	if len(kept.Methods) != len(orig.Methods) {
		t.Fatal("non-transformable class was modified")
	}
	if res.Program.Has("HasNative_O_Int") {
		t.Fatal("generated family for non-transformable class")
	}
}

// TestSubstitutableAndReconstruct covers the archive-reload path.
func TestSubstitutableAndReconstruct(t *testing.T) {
	// C_O_Proxy_zz is a declared class that only looks like a proxy.
	prog, err := minijava.Compile(`
class C { int v; C(int v) { this.v = v; } int get() { return v; } }
class C_O_Proxy_zz { native int get(); }
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(prog, Options{Protocols: []string{"rrp", "soap"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Substitutable("C") || res.Substitutable("sys.Object") || res.Substitutable("Nope") {
		t.Fatal("Substitutable wrong")
	}
	rec, err := Reconstruct(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Substitutable("C") || !rec.Substitutable("Main") {
		t.Fatal("reconstructed substitutable set wrong")
	}
	protos := map[string]bool{}
	for _, p := range rec.Protocols {
		protos[p] = true
	}
	if len(protos) != 2 || !protos["rrp"] || !protos["soap"] {
		t.Fatalf("reconstructed protocols %v", rec.Protocols)
	}
	if !rec.ReadOnly(OProxy("C", "rrp"), "get/0") || rec.ReadOnly("C_O_Proxy_zz", "get/0") {
		t.Fatal("a proxy's native must take its twin's verdict, a declared native stays a writer")
	}
	// A plain program is rejected.
	if _, err := Reconstruct(prog); err == nil {
		t.Fatal("plain program reconstructed")
	}
}
