package verifier

import (
	"testing"

	"rafda/internal/corpus"
)

// maxVerifyAllocs pins what Verify allocates over the JDK-like corpus
// (seed 1, 8,214 classes): the measured 8 at one and at four workers,
// with room for the fan-out's own bookkeeping on wider machines.  The
// duplicate-method check once built a key string per method and the
// override check an error value per method overriding nothing, some
// 23,000 allocations in all.
const maxVerifyAllocs = 64

func TestCorpusVerifyAllocs(t *testing.T) {
	prog := corpus.Generate(corpus.JDKLike())
	allocs := testing.AllocsPerRun(1, func() {
		if errs := Verify(prog); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	})
	if allocs > maxVerifyAllocs {
		t.Fatalf("Verify allocates %.0f times over %d classes; want at most %d", allocs, prog.Len(), maxVerifyAllocs)
	}
	t.Logf("%.0f allocs over %d classes (pin %d)", allocs, prog.Len(), maxVerifyAllocs)
}
