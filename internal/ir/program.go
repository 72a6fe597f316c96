package ir

import (
	"fmt"
	"slices"
	"sort"

	"rafda/internal/par"
)

// Program is a set of classes closed under reference (when complete).
// It corresponds to the class path of the application being transformed.
type Program struct {
	index map[string]int // name -> position in list
	list  []*Class       // insertion order, for deterministic iteration
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{index: make(map[string]int)}
}

// NewProgramSize returns an empty program with room for n classes, so a
// builder that knows its class count adds them without regrowing.
func NewProgramSize(n int) *Program {
	return &Program{index: make(map[string]int, n), list: make([]*Class, 0, n)}
}

// Add inserts a class, indexing its methods (see Class.Method).  Adding a
// duplicate name returns an error.
func (p *Program) Add(c *Class) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("add class: nil or unnamed class")
	}
	if _, dup := p.index[c.Name]; dup {
		return fmt.Errorf("add class: duplicate class %q", c.Name)
	}
	c.indexMethods()
	p.index[c.Name] = len(p.list)
	p.list = append(p.list, c)
	return nil
}

// MustAdd is Add that panics; for use in generators building fresh names.
func (p *Program) MustAdd(c *Class) {
	if err := p.Add(c); err != nil {
		panic(err)
	}
}

// Remove deletes a class by name; missing names are ignored.  The
// classes after it move up one position.
func (p *Program) Remove(name string) {
	i, ok := p.index[name]
	if !ok {
		return
	}
	delete(p.index, name)
	p.list = slices.Delete(p.list, i, i+1)
	for j := i; j < len(p.list); j++ {
		p.index[p.list[j].Name] = j
	}
}

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class {
	if i, ok := p.index[name]; ok {
		return p.list[i]
	}
	return nil
}

// Index returns the named class's position in insertion order (the
// order of Names and Classes), or -1 if the program lacks it, so a walk
// can keep per-class state in a slice rather than a map keyed by name.
func (p *Program) Index(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the program contains the named class.
func (p *Program) Has(name string) bool { _, ok := p.index[name]; return ok }

// Len returns the number of classes.
func (p *Program) Len() int { return len(p.list) }

// Names returns all class names in insertion order.
func (p *Program) Names() []string {
	out := make([]string, len(p.list))
	for i, c := range p.list {
		out[i] = c.Name
	}
	return out
}

// SortedNames returns all class names sorted lexicographically.
func (p *Program) SortedNames() []string {
	out := p.Names()
	sort.Strings(out)
	return out
}

// Classes returns the classes in insertion order.
func (p *Program) Classes() []*Class {
	return slices.Clone(p.list)
}

// Clone returns a deep copy of the program; mutating the copy (as the
// transformer does) leaves the original untouched.
func (p *Program) Clone() *Program {
	q := NewProgram()
	for _, c := range p.Classes() {
		q.MustAdd(CloneClass(c))
	}
	return q
}

// IsSubclassOf reports whether class sub equals sup or transitively extends
// it via superclass links.  Malformed cyclic hierarchies terminate (false):
// a superclass chain longer than the class count has revisited a class.
func (p *Program) IsSubclassOf(sub, sup string) bool {
	name := sub
	for steps := 0; name != "" && steps <= len(p.list); steps++ {
		if name == sup {
			return true
		}
		c := p.Class(name)
		if c == nil {
			return false
		}
		name = c.Super
	}
	return false
}

// visited is the set of interfaces one graph walk has entered.  The
// first few live in the walk's own stack frame, so walks of ordinary
// hierarchies allocate nothing; only a walk that enters more distinct
// interfaces than that spills into a map.
type visited struct {
	n     int
	first [16]string
	more  map[string]bool
}

// enter records name, reporting false if the walk has been there before.
func (s *visited) enter(name string) bool {
	for i := 0; i < s.n && i < len(s.first); i++ {
		if s.first[i] == name {
			return false
		}
	}
	if s.more[name] {
		return false
	}
	if s.n < len(s.first) {
		s.first[s.n] = name
	} else {
		if s.more == nil {
			s.more = make(map[string]bool)
		}
		s.more[name] = true
	}
	s.n++
	return true
}

// ifaceReach reports whether interface i is, or transitively extends,
// iface.
func (p *Program) ifaceReach(i, iface string, seen *visited) bool {
	if i == iface {
		return true
	}
	if !seen.enter(i) {
		return false
	}
	c := p.Class(i)
	if c == nil {
		return false
	}
	for _, super := range c.Interfaces {
		if p.ifaceReach(super, iface, seen) {
			return true
		}
	}
	return false
}

// Implements reports whether class name (or any superclass) lists iface in
// its interfaces clause, directly or via interface extension.
func (p *Program) Implements(name, iface string) bool {
	var seen visited
	cur := name
	for steps := 0; cur != "" && steps <= len(p.list); steps++ {
		c := p.Class(cur)
		if c == nil {
			return false
		}
		for _, i := range c.Interfaces {
			if p.ifaceReach(i, iface, &seen) {
				return true
			}
		}
		cur = c.Super
	}
	return false
}

// AssignableTo reports whether a value of dynamic class `from` may be bound
// to a reference of static class/interface `to`.
func (p *Program) AssignableTo(from, to string) bool {
	if from == to || to == ObjectClass {
		return true
	}
	if p.IsSubclassOf(from, to) {
		return true
	}
	return p.Implements(from, to)
}

// ifaceMethod searches interface iname and its superinterfaces,
// depth-first, for a declaration of name/nargs.
func (p *Program) ifaceMethod(iname, name string, nargs int, seen *visited) (*Class, *Method) {
	if !seen.enter(iname) {
		return nil, nil
	}
	ic := p.Class(iname)
	if ic == nil {
		return nil, nil
	}
	if m := ic.Method(name, nargs); m != nil {
		return ic, m
	}
	for _, super := range ic.Interfaces {
		if dc, dm := p.ifaceMethod(super, name, nargs, seen); dm != nil {
			return dc, dm
		}
	}
	return nil, nil
}

// ResolveMethod looks up the method `name/nargs` starting at class cname
// and walking the superclass chain, then superinterfaces.  It returns the
// declaring class and the method, or an error.
func (p *Program) ResolveMethod(cname, name string, nargs int) (*Class, *Method, error) {
	if c, m := p.LookupMethod(cname, name, nargs); m != nil {
		return c, m, nil
	}
	return nil, nil, fmt.Errorf("resolve: no method %s.%s/%d", cname, name, nargs)
}

// LookupMethod is ResolveMethod for a caller that needs no reason for a
// miss, such as the verifier looking up the method each method
// overrides (most override none): a miss, or a superclass chain that
// names an unknown class, is a nil method.
func (p *Program) LookupMethod(cname, name string, nargs int) (*Class, *Method) {
	cur := cname
	for steps := 0; cur != "" && steps <= len(p.list); steps++ {
		c := p.Class(cur)
		if c == nil {
			return nil, nil
		}
		if m := c.Method(name, nargs); m != nil {
			return c, m
		}
		cur = c.Super
	}
	// Interface default resolution: search the interface graph for an
	// abstract declaration (used by the verifier for interface types).
	var seen visited
	cur = cname
	for steps := 0; cur != "" && steps <= len(p.list); steps++ {
		cc := p.Class(cur)
		if cc == nil {
			break
		}
		for _, i := range cc.Interfaces {
			if dc, dm := p.ifaceMethod(i, name, nargs, &seen); dm != nil {
				return dc, dm
			}
		}
		cur = cc.Super
	}
	return nil, nil
}

// ResolveField looks up field `name` starting at class cname and walking
// the superclass chain.
func (p *Program) ResolveField(cname, name string) (*Class, *Field, error) {
	cur := cname
	for steps := 0; cur != "" && steps <= len(p.list); steps++ {
		c := p.Class(cur)
		if c == nil {
			return nil, nil, fmt.Errorf("resolve field %s.%s: unknown class %q", cname, name, cur)
		}
		if f := c.Field(name); f != nil {
			return c, f, nil
		}
		cur = c.Super
	}
	return nil, nil, fmt.Errorf("resolve: no field %s.%s", cname, name)
}

// MissingReferences returns, for each class, referenced class names absent
// from the program (sorted).  An empty result means the program is closed.
// Classes are scanned on par.For's workers.
func (p *Program) MissingReferences() []string {
	perClass := make([][]string, len(p.list))
	par.For(len(p.list), func(i int) {
		p.list[i].VisitReferences(func(r string) {
			if !p.Has(r) {
				perClass[i] = append(perClass[i], r)
			}
		})
	})
	missing := map[string]bool{}
	for _, refs := range perClass {
		for _, r := range refs {
			missing[r] = true
		}
	}
	out := make([]string, 0, len(missing))
	for n := range missing {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CloneClass returns a deep copy of a class.  Each of the copy's slices
// has its length as its capacity, so appending to one never writes into
// another; the methods' bodies, parameters and handlers are carved from
// one array of each per class.
func CloneClass(c *Class) *Class {
	n := *c
	n.byKey, n.indexed = nil, nil
	n.Interfaces = exactCopy(c.Interfaces)
	n.Fields = exactCopy(c.Fields)
	var nCode, nParams, nHandlers, nTypeRefs int
	for _, m := range c.Methods {
		nCode += len(m.Code)
		nParams += len(m.Params)
		nHandlers += len(m.Handlers)
		for _, in := range m.Code {
			if in.TypeRef != nil {
				nTypeRefs++
			}
		}
	}
	methods := make([]Method, len(c.Methods))
	code := make([]Instr, nCode)
	params := make([]Type, nParams)
	handlers := make([]TryHandler, nHandlers)
	typeRefs := make([]Type, nTypeRefs)
	n.Methods = make([]*Method, len(c.Methods))
	for i, m := range c.Methods {
		nm := &methods[i]
		*nm = *m
		nm.Params = Carve(&params, len(m.Params))
		copy(nm.Params, m.Params)
		nm.Handlers = Carve(&handlers, len(m.Handlers))
		copy(nm.Handlers, m.Handlers)
		nm.Code = Carve(&code, len(m.Code))
		copy(nm.Code, m.Code)
		for j, in := range nm.Code {
			if in.TypeRef != nil {
				t := Carve(&typeRefs, 1)
				t[0] = *in.TypeRef
				nm.Code[j].TypeRef = &t[0]
			}
		}
		n.Methods[i] = nm
	}
	return &n
}

// exactCopy returns a copy of s whose capacity is its length, or nil for
// an empty s.
func exactCopy[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return append(make(S, 0, len(s)), s...)
}

// Carve hands out the next n elements of *slab, sealed (capacity n, so
// an append to it cannot write into the next one), and advances *slab
// past them.  n == 0 hands out nil.  A builder that knows how many
// elements its output needs makes one slab of that size and carves every
// slice from it.
func Carve[S ~[]E, E any](slab *S, n int) S {
	if n == 0 {
		return nil
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}
