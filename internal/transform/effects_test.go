package transform

import (
	"testing"

	"rafda/internal/ir"
	"rafda/internal/minijava"
)

const effectsSource = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int get() { return n; }
    int doubled() { return this.get() * 2; }
    void bump() { n = n + 1; }
}
class Main {
    static void main() { sys.System.println("x"); }
}`

func transformRRP(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Transform(prog, Options{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return res
}

// TestEffectsSurviveTransform checks the classification holds on the
// transformed program — where the runtime actually queries it: the
// A_O_Local class carries the original bodies, so its read-only methods
// stay provable, while the generated accessors split correctly into
// getter (read) and setter (write).  The proxy's natives take their
// local twin's verdicts.
func TestEffectsSurviveTransform(t *testing.T) {
	res := transformRRP(t, effectsSource)
	local, proxy := OLocal("Counter"), OProxy("Counter")
	cases := []struct {
		class, key string
		readOnly   bool
	}{
		{local, ir.MethodKey("get", 0), true},
		{local, ir.MethodKey("doubled", 0), true},
		{local, ir.MethodKey("bump", 0), false},
		{local, ir.MethodKey(Getter("n"), 0), true},
		{local, ir.MethodKey(Setter("n"), 1), false},
		{proxy, ir.MethodKey("get", 0), true},
		{proxy, ir.MethodKey("bump", 0), false},
	}
	for _, c := range cases {
		if got := res.ReadOnly(c.class, c.key); got != c.readOnly {
			t.Errorf("%s.%s: ReadOnly = %v, want %v", c.class, c.key, got, c.readOnly)
		}
	}
}
