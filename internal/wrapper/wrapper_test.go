package wrapper

import (
	"bytes"
	"strings"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/verifier"
	"rafda/internal/vm"
)

// runBoth compiles src, runs it untouched and wrapper-transformed, and
// requires identical output.
func runBoth(t *testing.T, src string) string {
	t.Helper()
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var origOut bytes.Buffer
	orig := vm.MustNew(prog.Clone(), vm.WithOutput(&origOut))
	if err := orig.RunMain("Main"); err != nil {
		t.Fatalf("original run: %v", err)
	}

	res, err := Transform(prog)
	if err != nil {
		t.Fatalf("wrapper transform: %v", err)
	}
	if errs := verifier.Verify(res.Program); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("verify: %v", e)
		}
		t.FailNow()
	}
	var wrapOut bytes.Buffer
	wrapped := vm.MustNew(res.Program, vm.WithOutput(&wrapOut))
	if err := wrapped.RunMain("Main"); err != nil {
		t.Fatalf("wrapped run: %v", err)
	}
	if origOut.String() != wrapOut.String() {
		t.Fatalf("behaviour diverged:\noriginal: %q\nwrapped:  %q", origOut.String(), wrapOut.String())
	}
	return wrapOut.String()
}

func TestWrapperEquivalenceBasic(t *testing.T) {
	out := runBoth(t, `
class Point {
    int x;
    int y;
    Point(int x, int y) { this.x = x; this.y = y; }
    int dist2() { return x * x + y * y; }
}
class Main {
    static void main() {
        Point p = new Point(3, 4);
        sys.System.println("d2=" + p.dist2());
        p.x = 6;
        sys.System.println("d2=" + p.dist2());
    }
}`)
	if out != "d2=25\nd2=52\n" {
		t.Fatalf("unexpected output %q", out)
	}
}

func TestWrapperEquivalenceSharedState(t *testing.T) {
	runBoth(t, `
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
class Main {
    static void main() {
        C shared = new C(10);
        A a1 = new A(shared);
        A a2 = new A(shared);
        sys.System.println("" + a1.use() + "," + a2.use() + "," + shared.bump());
    }
}`)
}

func TestWrapperEquivalenceInheritance(t *testing.T) {
	runBoth(t, `
class Base {
    int v;
    Base(int v) { this.v = v; }
    int get() { return v; }
    int twice() { return get() * 2; }
}
class Derived extends Base {
    Derived(int v) { super(v); }
    int get() { return v + 100; }
}
class Main {
    static void main() {
        Base b = new Derived(5);
        sys.System.println("t=" + b.twice());
        Base p = new Base(3);
        sys.System.println("t=" + p.twice());
    }
}`)
}

// boxSource constructs wrapped objects before and inside a try block, so
// every inserted wrap call shifts the handler's range.
const boxSource = `
class Box {
    int v;
    Box(int v) { this.v = v; }
    int get() { if (v < 0) { throw new sys.RuntimeException("neg"); } return v; }
}
class Main {
    static void main() {
        Box a = new Box(1);
        Box b = new Box(2);
        try {
            Box c = new Box(-1);
            sys.System.println("got " + c.get());
        } catch (sys.RuntimeException e) {
            sys.System.println("caught " + e.getMessage());
        }
        sys.System.println("end " + a.v + b.v);
    }
}`

func TestWrapperEquivalenceHandlers(t *testing.T) {
	if out := runBoth(t, boxSource); out != "caught neg\nend 12\n" {
		t.Fatalf("unexpected output %q", out)
	}
}

// TestWrapperJumpOutOfRange: a jump past the body is an error naming the
// class, not a panic.
func TestWrapperJumpOutOfRange(t *testing.T) {
	prog, err := minijava.Compile(boxSource)
	if err != nil {
		t.Fatal(err)
	}
	get := prog.Class("Box").Method("get", 0)
	get.Code = append([]ir.Instr{{Op: ir.OpJump, A: 99}}, get.Code...)
	_, err = Transform(prog)
	if err == nil || !strings.HasPrefix(err.Error(), "wrap Box: ") || !strings.Contains(err.Error(), "99 out of range") {
		t.Fatalf("want a wrap Box error for jump target 99, got %v", err)
	}
}

func TestEveryInstanceIsWrapped(t *testing.T) {
	prog, err := minijava.Compile(`
class Thing {
    int id;
    Thing(int id) { this.id = id; }
    int get() { return id; }
}
class Main {
    static string go() {
        Thing t = new Thing(1);
        return t.getClass();
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.MustNew(res.Program)
	got, err := machine.Invoke("Main", "go", vm.Value{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.S != "Thing_Wrapper" {
		t.Fatalf("dynamic class %q; instance escaped wrapping", got.S)
	}
}

func TestWrapperCountsPerInstance(t *testing.T) {
	// One wrapper object per instantiated object: N constructions yield
	// N wrappers (the per-object overhead §3 points at).
	prog, err := minijava.Compile(`
class Leaf {
    int v;
    Leaf(int v) { this.v = v; }
    int get() { return v; }
}
class Main {
    static int go(int n) {
        int total = 0;
        for (int i = 0; i < n; i = i + 1) {
            Leaf l = new Leaf(i);
            total = total + l.get();
        }
        return total;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.MustNew(res.Program)
	got, err := machine.Invoke("Main", "go", vm.Value{}, []vm.Value{vm.IntV(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 45 {
		t.Fatalf("sum=%d want 45", got.I)
	}
}
