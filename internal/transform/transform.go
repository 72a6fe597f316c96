package transform

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"rafda/internal/ir"
	"rafda/internal/par"
	"rafda/internal/verifier"
)

// Options configure a transformation.
type Options struct {
	// Deprecated: Protocols is ignored.  A family has one proxy pair,
	// and a proxy's endpoint names the transport it calls over.
	Protocols []string
	// Exclude bars classes from transformation by policy; exclusion
	// closes transitively per §2.4.
	Exclude []string
}

// Result is a completed transformation.
type Result struct {
	// Program is the transformed program: generated classes plus
	// untouched non-transformable originals.  Every node and VM built
	// from the Result shares it, so it must not change once built.
	Program *ir.Program
	// Analysis is the substitutability analysis the transformation used;
	// nil when the Result was reconstructed from an archive.
	Analysis *Analysis
	// Transformed lists the classes that were substituted, in program
	// order.
	Transformed []string

	subOnce       sync.Once
	substitutable map[string]bool

	effectsOnce sync.Once
	effects     *verifier.Effects
}

// Substitutable reports whether the named original class was transformed
// (and may therefore cross address spaces).  Nodes call this from
// concurrent dispatch goroutines, so the lazy index is built under a
// sync.Once.
func (r *Result) Substitutable(class string) bool {
	r.subOnce.Do(func() {
		m := make(map[string]bool, len(r.Transformed))
		for _, c := range r.Transformed {
			m[c] = true
		}
		r.substitutable = m
	})
	return r.substitutable[class]
}

// ReadOnly reports whether methodKey (name/nargs) on class is provably
// free of writes to state that existed before the call
// (verifier.Effects; a proxy's natives take their local twin's).  The
// verdicts belong to the program: the first query solves them once, for
// every node built from the Result.
func (r *Result) ReadOnly(class, methodKey string) bool {
	r.effectsOnce.Do(func() {
		r.effects = verifier.AnalyzeEffects(r.Program, proxyTwin)
	})
	return r.effects.ReadOnly(class, methodKey)
}

// ErrNotTransformed is Reconstruct's refusal of a program that holds no
// generated factory: it has not been transformed.
var ErrNotTransformed = errors.New("program contains no generated factories; not a transformed program")

// Reconstruct rebuilds a Result from an already-transformed program
// (e.g. decoded from an archive): substituted classes are recognised by
// the marks of their generated factories.
func Reconstruct(prog *ir.Program) (*Result, error) {
	res := &Result{Program: prog}
	for _, c := range prog.Classes() {
		if m := MarkOf(c); m.Kind == KindOFactory {
			res.Transformed = append(res.Transformed, m.Base)
		}
	}
	if len(res.Transformed) == 0 {
		return nil, ErrNotTransformed
	}
	return res, nil
}

// Transform applies the paper's full §2 transformation pipeline to prog
// and returns the componentised program.  The input program is not
// modified.  Each class's family (or, for a non-transformable class, its
// copy) is built on par.For's workers and merged in program order, so
// the output is the same at any GOMAXPROCS.  Every generated name comes
// from one table built first; a first pass builds each _O_Int, and the
// second each family around it, its proxies taking their members from
// the _O_Ints of the class and its ancestors.
func Transform(prog *ir.Program, opts Options) (*Result, error) {
	analysis := Analyze(prog, opts.Exclude...)
	classes := prog.Classes()
	names := newNameTable(classes, analysis)
	t := &transformer{
		nameTable: names,
		classes:   classes,
		built:     make([][]ir.Class, len(classes)),
	}
	par.For(len(classes), func(i int) {
		if n := t.of(classes[i].Name); n != nil {
			t.makeOInt(classes[i], n)
		}
	})

	// Each class's output is its family's classes, or its copy, at its
	// place in one list.
	total := len(classes) + len(names.byClass)*(familySize-1)
	all := make([]*ir.Class, total)
	families := make([][]*ir.Class, len(classes))
	for i := range classes {
		size := 1
		if t.built[i] != nil {
			size = familySize
		}
		families[i] = ir.Carve(&all, size)
	}
	errs := make([]error, len(classes))
	par.ForWith(len(classes), func(sc *scratch, i int) {
		c := classes[i]
		if n := t.of(c.Name); n != nil {
			errs[i] = t.family(sc, c, n, families[i])
			return
		}
		families[i][0] = ir.CloneClass(c)
	})

	out := ir.NewProgramSize(total)
	res := &Result{Program: out, Analysis: analysis, Transformed: make([]string, 0, len(names.byClass))}
	for i, c := range classes {
		if errs[i] != nil {
			return nil, fmt.Errorf("transform %s: %w", c.Name, errs[i])
		}
		for _, g := range families[i] {
			if out.Add(g) != nil { // every class here is named: a duplicate
				return nil, duplicateError(analysis, classes, families, i, g.Name)
			}
		}
		if t.built[i] != nil {
			res.Transformed = append(res.Transformed, c.Name)
		}
	}
	return res, nil
}

// duplicateError reports a class name produced twice: once by an earlier
// source class (or earlier in the same family) and again by classes[i]'s
// output.  It names both source classes and whether each one generated
// the name or declares it.
func duplicateError(a *Analysis, classes []*ir.Class, families [][]*ir.Class, i int, name string) error {
	origin := func(j int) string {
		if a.Transformable(classes[j].Name) {
			return "generated for " + classes[j].Name
		}
		return "original class " + classes[j].Name
	}
	j := 0
	for !slices.ContainsFunc(families[j], func(g *ir.Class) bool { return g.Name == name }) {
		j++
	}
	return fmt.Errorf("transform: duplicate class %q: %s and %s", name, origin(j), origin(i))
}

// MainEntry returns the invocation target for the program entry point
// `static void main()` on mainClass after transformation: the class
// factory forwarder when mainClass was transformed, or the original
// class otherwise.
func (r *Result) MainEntry(mainClass string) (class, method string) {
	if r.Substitutable(mainClass) {
		return CFactory(mainClass), "main"
	}
	return mainClass, "main"
}
