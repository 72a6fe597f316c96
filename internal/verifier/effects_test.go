package verifier

import (
	"fmt"
	"strings"
	"testing"

	"rafda/internal/ir"
)

const effectsSource = `
class Counter {
    int n;
    int[] log;
    Counter(int n) { this.n = n; }
    int get() { return n; }
    int doubled() { return this.get() * 2; }
    void bump() { n = n + 1; }
    int bumpAndGet() { this.bump(); return this.get(); }
    int peekVia(Counter other) { return other.get(); }
    int tally() {
        int s = 0;
        for (int i = 0; i < 3; i = i + 1) { s = s + this.get(); }
        return s;
    }
    void record(int v) { log[0] = v; }
    int shout() { sys.System.println("n"); return n; }
}
class Main {
    static void main() { sys.System.println("x"); }
}`

func analyze(t *testing.T) *Effects {
	t.Helper()
	p := compile(t, effectsSource)
	return AnalyzeEffects(p, nil)
}

func TestEffectsDirectClassification(t *testing.T) {
	e := analyze(t)
	cases := []struct {
		method   string
		nargs    int
		readOnly bool
	}{
		{"get", 0, true},         // field read only
		{"doubled", 0, true},     // calls a read-only method
		{"peekVia", 1, true},     // reads through another receiver
		{"tally", 0, true},       // loop of pure calls
		{"bump", 0, false},       // OpPutField
		{"bumpAndGet", 0, false}, // calls a writer
		{"record", 1, false},     // OpAStore
		{"shout", 0, false},      // calls a native (println): unknown semantics
	}
	for _, c := range cases {
		got := e.ReadOnly("Counter", ir.MethodKey(c.method, c.nargs))
		if got != c.readOnly {
			t.Errorf("Counter.%s/%d: ReadOnly = %v, want %v", c.method, c.nargs, got, c.readOnly)
		}
	}
	// Constructors always write.
	if e.ReadOnly("Counter", ir.MethodKey(ir.ConstructorName, 1)) {
		t.Error("constructor classified read-only")
	}
	// Unknown methods default to writer.
	if e.ReadOnly("Counter", ir.MethodKey("nosuch", 0)) {
		t.Error("unknown method classified read-only")
	}
	if e.ReadOnly("NoClass", ir.MethodKey("get", 0)) {
		t.Error("unknown class classified read-only")
	}
}

// TestEffectsVirtualDispatchTaint pins the conservative virtual-dispatch
// rule: a call site whose method key has any writing override anywhere
// in the program taints the caller, even if the static receiver type's
// own implementation is pure.
func TestEffectsVirtualDispatchTaint(t *testing.T) {
	src := `
class A {
    int probe() { return 1; }
    int use(A a) { return a.probe(); }
}
class B extends A {
    int x;
    int probe() { x = x + 1; return x; }
}
class Main { static void main() { sys.System.println("x"); } }`
	e := AnalyzeEffects(compile(t, src), nil)
	if e.ReadOnly("A", ir.MethodKey("use", 1)) {
		t.Error("use/1 should be tainted by B's writing override of probe/0")
	}
	if !e.ReadOnly("A", ir.MethodKey("probe", 0)) {
		t.Error("A.probe/0 itself is pure and should classify read-only")
	}
}

// TestEffectsKeyWithoutConcreteDeclaration: a virtual or interface
// call site whose method key is declared only abstractly has nothing to
// dispatch to, so it taints nothing.
func TestEffectsKeyWithoutConcreteDeclaration(t *testing.T) {
	src := `
interface Shape { int area(); }
abstract class Base { abstract int perimeter(); }
class User {
    int use(Shape s, Base b) { return s.area() + b.perimeter(); }
}
class Main { static void main() { sys.System.println("x"); } }`
	e := AnalyzeEffects(compile(t, src), nil)
	if !e.ReadOnly("User", ir.MethodKey("use", 2)) {
		t.Error("use/2 calls only keys with no concrete declaration and should classify read-only")
	}
}

// TestEffectsAliasToUndeclaredMethod: an aliased native takes its
// twin's verdict, and one whose twin does not declare the method is a
// writer, as are its callers.
func TestEffectsAliasToUndeclaredMethod(t *testing.T) {
	src := `
class Twin {
    int n;
    int get() { return n; }
}
class Fwd {
    native int get();
    native int other();
}
class User {
    int viaGet(Fwd f) { return f.get(); }
    int viaOther(Fwd f) { return f.other(); }
}
class Main { static void main() { sys.System.println("x"); } }`
	e := AnalyzeEffects(compile(t, src), func(c *ir.Class) string {
		if c.Name == "Fwd" {
			return "Twin"
		}
		return ""
	})
	cases := []struct {
		class, key string
		readOnly   bool
	}{
		{"Fwd", ir.MethodKey("get", 0), true},
		{"Fwd", ir.MethodKey("other", 0), false},
		{"User", ir.MethodKey("viaGet", 1), true},
		{"User", ir.MethodKey("viaOther", 1), false},
	}
	for _, c := range cases {
		if got := e.ReadOnly(c.class, c.key); got != c.readOnly {
			t.Errorf("%s.%s: ReadOnly = %v, want %v", c.class, c.key, got, c.readOnly)
		}
	}
}

// TestEffectsLongChain: taint crosses a 10,000-method call chain from
// the writer at its tail to its head.  Each link is its own class, so
// compiling the chain stays linear.
func TestEffectsLongChain(t *testing.T) {
	const n = 10000
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "class L%d { static int m() { return L%d.m(); } }\n", i, i+1)
	}
	fmt.Fprintf(&b, "class L%d { static int hits; static int m() { hits = hits + 1; return hits; } }\n", n-1)
	b.WriteString(`class Main { static void main() { sys.System.println("x"); } }`)
	e := AnalyzeEffects(compile(t, b.String()), nil)
	for _, i := range []int{0, n / 2, n - 1} {
		if e.ReadOnly(fmt.Sprintf("L%d", i), ir.MethodKey("m", 0)) {
			t.Errorf("L%d.m/0 reaches a writer and should not classify read-only", i)
		}
	}
}

// TestEffectsMutualRecursion: a cycle of pure methods stays read-only,
// and one write anywhere on the cycle taints all of it.
func TestEffectsMutualRecursion(t *testing.T) {
	const src = `
class Ping {
    int n;
    int ping(int k) { if (k > 0) { return this.pong(k - 1); } return n; }
    int pong(int k) { %s return this.ping(k); }
}
class Main { static void main() { sys.System.println("x"); } }`
	for _, c := range []struct {
		body     string
		readOnly bool
	}{
		{"", true},
		{"n = k;", false},
	} {
		e := AnalyzeEffects(compile(t, fmt.Sprintf(src, c.body)), nil)
		for _, m := range []string{"ping", "pong"} {
			if got := e.ReadOnly("Ping", ir.MethodKey(m, 1)); got != c.readOnly {
				t.Errorf("pong body %q: Ping.%s/1 ReadOnly = %v, want %v", c.body, m, got, c.readOnly)
			}
		}
	}
}
