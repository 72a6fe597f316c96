package verifier_test

// These tests transform their programs first.  The transformer owns the
// effects verdicts of what it produces and so imports this package;
// only an external test package may import it back.

import (
	"testing"

	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/transform"
	"rafda/internal/verifier"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

const goodSource = `
class Pair {
    int a;
    int b;
    Pair(int a, int b) { this.a = a; this.b = b; }
    int sum() { return a + b; }
    static Pair of(int a, int b) { return new Pair(a, b); }
}
class Main {
    static void main() {
        Pair p = Pair.of(1, 2);
        sys.System.println("sum=" + p.sum());
        try {
            int x = 1 / (p.sum() - 3);
            sys.System.println("x=" + x);
        } catch (sys.ArithmeticException e) {
            sys.System.println("div0");
        }
        int[] xs = new int[3];
        for (int i = 0; i < xs.length; i = i + 1) { xs[i] = i; }
        while (p.sum() < 0) { break; }
    }
}`

func TestCompilerOutputVerifies(t *testing.T) {
	p := compile(t, goodSource)
	if errs := verifier.Verify(p); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("unexpected: %v", e)
		}
	}
}

// TestTransformedOutputVerifies is the key structural guarantee: the
// transformer's generated program is itself verifiable.
func TestTransformedOutputVerifies(t *testing.T) {
	p := compile(t, goodSource)
	res, err := transform.Transform(p, transform.Options{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if errs := verifier.Verify(res.Program); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("transformed program: %v", e)
		}
	}
}

// TestTransformedDistributedProgramsVerify runs the verifier over the
// transformer output for every semantic-equivalence test program shape.
func TestTransformedDistributedProgramsVerify(t *testing.T) {
	srcs := []string{
		`class C { int s; C(int s) { this.s = s; } int bump() { s = s + 1; return s; } }
		 class Main { static void main() { C c = new C(1); sys.System.println("" + c.bump()); } }`,
		`class K { static int n = 3; static int get() { return n; } }
		 class Main { static void main() { sys.System.println("" + K.get()); } }`,
		`class P { int v; P(int v) { this.v = v; } }
		 class Q extends P { Q(int v) { super(v); } int twice() { return v * 2; } }
		 class Main { static void main() { Q q = new Q(4); sys.System.println("" + q.twice()); } }`,
	}
	for i, src := range srcs {
		p := compile(t, src)
		res, err := transform.Transform(p, transform.Options{})
		if err != nil {
			t.Fatalf("case %d transform: %v", i, err)
		}
		if errs := verifier.Verify(res.Program); len(errs) > 0 {
			for _, e := range errs {
				t.Errorf("case %d: %v", i, e)
			}
		}
	}
}
