package rafda

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// A declared class may be named like a generated one.  The runtime
// knows generated classes by their marks, so such a class is neither a
// factory, nor a local instance, nor a reason to take a plain program
// for a transformed one.

func TestDeclaredFactoryNameIsNotAFactory(t *testing.T) {
	prog := MustCompileString(`
class Box { int v; int get() { return v; } }
class Tag_O_Factory { int t; }
class Main { static void main() { Box b = new Box(); Tag_O_Factory t = new Tag_O_Factory(); } }`)
	tr, err := prog.Transform(WithExclude("Tag_O_Factory"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Program().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTransformed(back)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.TransformedClasses(), []string{"Box", "Main"}; !slices.Equal(got, want) {
		t.Fatalf("LoadTransformed lists %v, want %v", got, want)
	}
}

func TestDeclaredLocalNameDoesNotMigrate(t *testing.T) {
	prog := MustCompileString(`
class Cell_O_Local { int v; int bump() { v = v + 1; return v; } }
class Keeper {
    static Cell_O_Local held = new Cell_O_Local();
    static int poke() { return held.bump(); }
}
class Main { static void main() {} }`)
	tr, err := prog.Transform(WithExclude("Cell_O_Local"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.NewNode(NodeConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tr.NewNode(NodeConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	epB, err := b.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Serve("rrp", ""); err != nil {
		t.Fatal(err)
	}
	held, err := a.ReadStatic("Keeper", "held")
	if err != nil {
		t.Fatal(err)
	}
	err = a.Migrate(held.(*Ref), epB)
	if err == nil || !strings.Contains(err.Error(), "cannot migrate Cell_O_Local") {
		t.Fatalf("Migrate of a declared Cell_O_Local: %v, want the source's refusal naming Cell_O_Local", err)
	}
	if in := b.Stats().MigrationsIn; in != 0 {
		t.Fatalf("peer adopted %d objects", in)
	}
	// The refusal froze nothing: the object still serves writes here.
	if got, err := a.Call("Keeper", "poke"); err != nil || got.(int64) != 1 {
		t.Fatalf("poke after the refused migration = %v, %v; want 1", got, err)
	}
}

func TestPlainProgramIsNotTransformed(t *testing.T) {
	prog := MustCompileString(`
class Counter { int n; int bump() { n = n + 1; return n; } }
class Tag_O_Factory { int t; }
class Main { static void main() { Counter c = new Counter(); c.bump(); } }`)
	if _, err := LoadTransformed(prog); !errors.Is(err, ErrNotTransformed) {
		t.Fatalf("LoadTransformed of a plain program: %v, want ErrNotTransformed", err)
	}
}
