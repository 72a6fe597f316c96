package transform

import (
	"testing"

	"rafda/internal/corpus"
)

// maxTransformAllocsPerClass pins what a corpus Transform allocates per
// input class: the measured 10.1, plus 10 %.  Transform allocates its
// output and little else — one name table, each _O_Int built once, each
// family carved from arrays of its exact size — where it once allocated
// 98 per class.  A change that lowers the count should lower the pin.
const maxTransformAllocsPerClass = 11.1

func TestCorpusTransformAllocs(t *testing.T) {
	prog := corpus.Generate(corpus.JDKLike())
	opts := Options{Protocols: []string{"rrp"}}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Transform(prog, opts); err != nil {
			t.Fatal(err)
		}
	})
	perClass := allocs / float64(prog.Len())
	if perClass > maxTransformAllocsPerClass {
		t.Fatalf("Transform allocates %.0f times, %.1f per input class; want at most %.1f", allocs, perClass, maxTransformAllocsPerClass)
	}
	t.Logf("%.0f allocs, %.2f per input class (pin %.1f)", allocs, perClass, maxTransformAllocsPerClass)
}

// TestCorpusOutputSealed checks that every slice of the corpus output
// ends where its contents end (cap == len).  Families are carved from
// shared arrays, so an append to a slice with room to spare would write
// into its neighbour.
func TestCorpusOutputSealed(t *testing.T) {
	res, err := Transform(corpus.Generate(corpus.JDKLike()), Options{Protocols: []string{"rrp"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	check := func(what string, length, capacity int) {
		if length != capacity && bad < 10 {
			bad++
			t.Errorf("%s: len %d, cap %d", what, length, capacity)
		}
	}
	for _, c := range res.Program.Classes() {
		check(c.Name+".Methods", len(c.Methods), cap(c.Methods))
		check(c.Name+".Fields", len(c.Fields), cap(c.Fields))
		check(c.Name+".Interfaces", len(c.Interfaces), cap(c.Interfaces))
		for _, m := range c.Methods {
			where := c.Name + "." + m.Key()
			check(where+" Code", len(m.Code), cap(m.Code))
			check(where+" Params", len(m.Params), cap(m.Params))
			check(where+" Handlers", len(m.Handlers), cap(m.Handlers))
		}
	}
}
