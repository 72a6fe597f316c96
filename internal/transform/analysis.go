package transform

import (
	"fmt"
	"sort"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

// Reason explains why a class is not transformable (§2.4).
type Reason uint8

// Non-transformability reasons.
const (
	ReasonNone Reason = iota
	// ReasonSystem: sys.* classes have VM-level semantics (the paper's
	// "some system classes and interfaces have special semantics in the
	// JVM").
	ReasonSystem
	// ReasonThrowable: throwing requires extending sys.Throwable, whose
	// special semantics must be preserved.
	ReasonThrowable
	// ReasonNative: "it is not practical to inspect or transform code in
	// native methods".
	ReasonNative
	// ReasonUserInterface: user-defined interfaces are one of the
	// language-specific issues the paper leaves out of scope; we treat
	// them (and their implementors) as non-transformable.
	ReasonUserInterface
	// ReasonImplements: the class implements a user-defined interface.
	ReasonImplements
	// ReasonSuperOfNonTransformable: "the super-class of a
	// non-transformable class cannot be transformed" (multiple
	// inheritance would otherwise be required).
	ReasonSuperOfNonTransformable
	// ReasonSubclassOfNonTransformable: a class extending a
	// non-transformable class (other than sys.Object) is itself
	// non-transformable — a strengthening the interface-based
	// substitution requires, since inherited members of the original
	// superclass cannot appear in the extracted interface.
	ReasonSubclassOfNonTransformable
	// ReasonReferenced: "references in a non-transformable class cannot
	// be altered and thus classes and interfaces it refers to should
	// remain available in their original forms".
	ReasonReferenced
	// ReasonExcluded: excluded by explicit policy.
	ReasonExcluded
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "transformable"
	case ReasonSystem:
		return "system class"
	case ReasonThrowable:
		return "extends sys.Throwable"
	case ReasonNative:
		return "declares native method"
	case ReasonUserInterface:
		return "user-defined interface"
	case ReasonImplements:
		return "implements user-defined interface"
	case ReasonSuperOfNonTransformable:
		return "superclass of non-transformable class"
	case ReasonSubclassOfNonTransformable:
		return "extends non-transformable class"
	case ReasonReferenced:
		return "referenced by non-transformable class"
	case ReasonExcluded:
		return "explicitly excluded"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// Cause records why a class is non-transformable and, for closure rules,
// which class induced it.
type Cause struct {
	Reason Reason
	Via    string // inducing class for closure reasons, else ""
}

// Analysis is the substitutability analysis result for a program.
type Analysis struct {
	prog   *ir.Program
	causes map[string]Cause // class -> first cause; absent = transformable
}

// Analyze computes the transformable set of prog, applying the paper's
// §2.4 rules to a fixpoint.  exclude lists classes barred by policy.
func Analyze(prog *ir.Program, exclude ...string) *Analysis {
	a := &Analysis{prog: prog, causes: make(map[string]Cause)}

	excluded := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		excluded[e] = true
	}

	// Seed rules.
	for _, c := range prog.Classes() {
		switch {
		case excluded[c.Name]:
			a.causes[c.Name] = Cause{Reason: ReasonExcluded}
		case c.Special || stdlib.IsSystemClass(c.Name):
			a.causes[c.Name] = Cause{Reason: ReasonSystem}
		case prog.IsSubclassOf(c.Name, ir.ThrowableClass):
			a.causes[c.Name] = Cause{Reason: ReasonThrowable}
		case c.IsInterface:
			a.causes[c.Name] = Cause{Reason: ReasonUserInterface}
		case c.HasNativeMethod():
			a.causes[c.Name] = Cause{Reason: ReasonNative}
		case len(c.Interfaces) > 0:
			a.causes[c.Name] = Cause{Reason: ReasonImplements, Via: c.Interfaces[0]}
		}
	}

	// Closure rules to fixpoint.  A non-transformable class is expanded
	// (its superclass and references marked) only on the first pass that
	// sees it: that expansion marks every target, so repeating it on a
	// later pass would mark nothing.
	classes := prog.Classes()
	expanded := make([]bool, len(classes))
	for changed := true; changed; {
		changed = false
		mark := func(name string, cause Cause) {
			if name == "" || name == ir.ObjectClass {
				return
			}
			if _, done := a.causes[name]; done {
				return
			}
			if !prog.Has(name) {
				return
			}
			a.causes[name] = cause
			changed = true
		}
		for i, c := range classes {
			if _, nt := a.causes[c.Name]; nt {
				if expanded[i] {
					continue
				}
				expanded[i] = true
				// Superclass of a non-transformable class.
				mark(c.Super, Cause{Reason: ReasonSuperOfNonTransformable, Via: c.Name})
				// Everything a non-transformable class references (its
				// own name is among them, already marked).
				c.VisitReferences(func(r string) {
					mark(r, Cause{Reason: ReasonReferenced, Via: c.Name})
				})
				continue
			}
			// Subclass of a non-transformable class (other than
			// sys.Object).
			if c.Super != "" && c.Super != ir.ObjectClass {
				if _, superNT := a.causes[c.Super]; superNT {
					mark(c.Name, Cause{Reason: ReasonSubclassOfNonTransformable, Via: c.Super})
				}
			}
		}
	}
	return a
}

// Transformable reports whether the named class may be substituted.
func (a *Analysis) Transformable(name string) bool {
	if !a.prog.Has(name) {
		return false
	}
	_, nt := a.causes[name]
	return !nt
}

// Cause returns why name is non-transformable (Reason==ReasonNone when it
// is transformable).
func (a *Analysis) Cause(name string) Cause { return a.causes[name] }

// Stats summarises the analysis, reproducing the shape of the paper's
// §2.4 statistic ("about 40% ... cannot be transformed").
type Stats struct {
	Total            int
	Transformable    int
	NonTransformable int
	ByReason         map[Reason]int
}

// Percent returns the non-transformable percentage.
func (s Stats) Percent() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.NonTransformable) / float64(s.Total)
}

// Stats computes summary counts over every class in the program.
func (a *Analysis) Stats() Stats {
	s := Stats{ByReason: make(map[Reason]int)}
	for _, n := range a.prog.Names() {
		s.Total++
		if cause, nt := a.causes[n]; nt {
			s.NonTransformable++
			s.ByReason[cause.Reason]++
		} else {
			s.Transformable++
		}
	}
	return s
}

// Report renders a per-reason breakdown, sorted by count descending.
func (a *Analysis) Report() string {
	s := a.Stats()
	type row struct {
		r Reason
		n int
	}
	var rows []row
	for r, n := range s.ByReason {
		rows = append(rows, row{r, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].r < rows[j].r
	})
	out := fmt.Sprintf("classes: %d  transformable: %d  non-transformable: %d (%.1f%%)\n",
		s.Total, s.Transformable, s.NonTransformable, s.Percent())
	for _, r := range rows {
		out += fmt.Sprintf("  %-40s %6d\n", r.r.String(), r.n)
	}
	return out
}
