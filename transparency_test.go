package rafda

import (
	"bytes"
	"testing"
)

// fieldHidingSource declares a field in a subclass under the name of a
// superclass field.  In Java the two are distinct fields, `a.x` reads A's
// and the program prints 1.
const fieldHidingSource = `
class A {
    int x;
    A() { x = 1; }
}
class B extends A {
    int x;
    B() { x = 2; }
}
class Main {
    static void main() {
        A a = new B();
        sys.System.printInt(a.x);
    }
}`

// TestFieldHidingSharesOneSlot pins a transparency limit (DESIGN.md,
// "Transparency limits"): the VM lays out one slot per field name along
// a class chain, so B's x is A's x, both constructors write it, and the
// program prints 2 where Java prints 1.  The transformed program, whose
// properties inherit the same layout, prints the same 2, so the
// transformation keeps what the original does.
func TestFieldHidingSharesOneSlot(t *testing.T) {
	prog, err := CompileString(fieldHidingSource)
	if err != nil {
		t.Fatal(err)
	}
	if errs := prog.Verify(); len(errs) > 0 {
		t.Fatalf("verify: %v", errs)
	}
	var orig bytes.Buffer
	if err := prog.Run("Main", &orig); err != nil {
		t.Fatalf("run original: %v", err)
	}
	tr, err := prog.Transform()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.TransformedClasses(); len(got) < 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("transformed %v, want A and B among them", got)
	}
	var local bytes.Buffer
	if err := tr.RunLocal("Main", &local); err != nil {
		t.Fatalf("run transformed: %v", err)
	}
	const want = "2\n"
	if orig.String() != want || local.String() != want {
		t.Fatalf("original printed %q and transformed %q; the pinned limit prints %q (Java: 1)", orig.String(), local.String(), want)
	}
}
