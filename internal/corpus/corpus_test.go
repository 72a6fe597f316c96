package corpus

import (
	"testing"

	"rafda/internal/transform"
	"rafda/internal/verifier"
)

func TestDeterminism(t *testing.T) {
	p := Params{Classes: 500, Layers: 3, CoreNativeFrac: 150, OuterNativeFrac: 5,
		InterfaceFrac: 50, ImplementsFrac: 25, ThrowableFrac: 50, RefsPerClass: 1,
		SubclassFrac: 150, Seed: 7}
	a := Generate(p)
	b := Generate(p)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	na, nb := a.SortedNames(), b.SortedNames()
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("name %d differs: %s vs %s", i, na[i], nb[i])
		}
	}
	// Same analysis outcome.
	sa := transform.Analyze(a).Stats()
	sb := transform.Analyze(b).Stats()
	if sa.NonTransformable != sb.NonTransformable || sa.Transformable != sb.Transformable {
		t.Fatalf("analysis differs: %+v vs %+v", sa, sb)
	}
}

func TestSeedChangesCorpus(t *testing.T) {
	p1 := Params{Classes: 500, Layers: 3, CoreNativeFrac: 150, OuterNativeFrac: 5,
		InterfaceFrac: 50, ImplementsFrac: 25, ThrowableFrac: 50, RefsPerClass: 1,
		SubclassFrac: 150, Seed: 1}
	p2 := p1
	p2.Seed = 2
	s1 := transform.Analyze(Generate(p1)).Stats()
	s2 := transform.Analyze(Generate(p2)).Stats()
	if s1.NonTransformable == s2.NonTransformable && s1.Transformable == s2.Transformable {
		t.Log("seeds produced identical stats; acceptable but unlikely")
	}
}

func TestGeneratedCorpusVerifies(t *testing.T) {
	p := JDKLike()
	p.Classes = 800 // keep the test fast; structure is scale-free
	prog := Generate(p)
	if errs := verifier.Verify(prog); len(errs) > 0 {
		for i, e := range errs {
			if i > 10 {
				t.Fatalf("... and %d more", len(errs)-10)
			}
			t.Errorf("verify: %v", e)
		}
	}
}

func TestJDKLikeReproducesPaperStatistic(t *testing.T) {
	// The paper: "About 40% of the 8,200 classes and interfaces in JDK
	// 1.4.1 cannot be transformed."
	prog := Generate(JDKLike())
	s := transform.Analyze(prog).Stats()
	if s.Total < 8200 {
		t.Fatalf("corpus too small: %d", s.Total)
	}
	pct := s.Percent()
	if pct < 33 || pct > 47 {
		t.Fatalf("non-transformable fraction %.1f%% outside the paper's ~40%% band", pct)
	}
}

func TestNativeSensitivity(t *testing.T) {
	// §2.4: "This percentage would increase if the user code contains
	// native methods which refer to a JDK class."
	base := JDKLike()
	base.Classes = 2000
	more := base
	more.CoreNativeFrac = 400
	more.OuterNativeFrac = 100
	pctBase := transform.Analyze(Generate(base)).Stats().Percent()
	pctMore := transform.Analyze(Generate(more)).Stats().Percent()
	if pctMore <= pctBase {
		t.Fatalf("more natives should reduce transformability: %.1f%% -> %.1f%%", pctBase, pctMore)
	}
}

func TestTransformableSubsetActuallyTransforms(t *testing.T) {
	p := JDKLike()
	p.Classes = 300
	prog := Generate(p)
	res, err := transform.Transform(prog, transform.Options{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if errs := verifier.Verify(res.Program); len(errs) > 0 {
		for i, e := range errs {
			if i > 10 {
				break
			}
			t.Errorf("verify transformed corpus: %v", e)
		}
	}
	if len(res.Transformed) == 0 {
		t.Fatal("nothing transformed")
	}
}
