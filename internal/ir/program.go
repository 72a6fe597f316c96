package ir

import (
	"fmt"
	"sort"

	"rafda/internal/par"
)

// Program is a set of classes closed under reference (when complete).
// It corresponds to the class path of the application being transformed.
type Program struct {
	classes map[string]*Class
	order   []string // insertion order, for deterministic iteration
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// NewProgramSize returns an empty program with room for n classes, so a
// builder that knows its class count adds them without regrowing.
func NewProgramSize(n int) *Program {
	return &Program{classes: make(map[string]*Class, n), order: make([]string, 0, n)}
}

// Add inserts a class, indexing its methods (see Class.Method).  Adding a
// duplicate name returns an error.
func (p *Program) Add(c *Class) error {
	if c == nil || c.Name == "" {
		return fmt.Errorf("add class: nil or unnamed class")
	}
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("add class: duplicate class %q", c.Name)
	}
	c.indexMethods()
	p.classes[c.Name] = c
	p.order = append(p.order, c.Name)
	return nil
}

// MustAdd is Add that panics; for use in generators building fresh names.
func (p *Program) MustAdd(c *Class) {
	if err := p.Add(c); err != nil {
		panic(err)
	}
}

// Remove deletes a class by name; missing names are ignored.
func (p *Program) Remove(name string) {
	if _, ok := p.classes[name]; !ok {
		return
	}
	delete(p.classes, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Has reports whether the program contains the named class.
func (p *Program) Has(name string) bool { _, ok := p.classes[name]; return ok }

// Len returns the number of classes.
func (p *Program) Len() int { return len(p.classes) }

// Names returns all class names in insertion order.
func (p *Program) Names() []string {
	out := make([]string, len(p.order))
	copy(out, p.order)
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
	out := make([]*Class, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.classes[n])
	}
	return out
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
	for steps := 0; name != "" && steps <= len(p.classes); steps++ {
		if name == sup {
			return true
		}
		c := p.classes[name]
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
	c := p.classes[i]
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
	for steps := 0; cur != "" && steps <= len(p.classes); steps++ {
		c := p.classes[cur]
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
	ic := p.classes[iname]
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
	cur := cname
	for steps := 0; cur != "" && steps <= len(p.classes); steps++ {
		c := p.classes[cur]
		if c == nil {
			return nil, nil, fmt.Errorf("resolve %s.%s/%d: unknown class %q", cname, name, nargs, cur)
		}
		if m := c.Method(name, nargs); m != nil {
			return c, m, nil
		}
		cur = c.Super
	}
	// Interface default resolution: search the interface graph for an
	// abstract declaration (used by the verifier for interface types).
	var seen visited
	cur = cname
	for steps := 0; cur != "" && steps <= len(p.classes); steps++ {
		cc := p.classes[cur]
		if cc == nil {
			break
		}
		for _, i := range cc.Interfaces {
			if dc, dm := p.ifaceMethod(i, name, nargs, &seen); dm != nil {
				return dc, dm, nil
			}
		}
		cur = cc.Super
	}
	return nil, nil, &noMethodError{cname, name, nargs}
}

// noMethodError is ResolveMethod's miss, formatted only when it is read:
// the verifier looks up the method each method overrides, and most
// override none.
type noMethodError struct {
	class, name string
	nargs       int
}

func (e *noMethodError) Error() string {
	return fmt.Sprintf("resolve: no method %s.%s/%d", e.class, e.name, e.nargs)
}

// ResolveField looks up field `name` starting at class cname and walking
// the superclass chain.
func (p *Program) ResolveField(cname, name string) (*Class, *Field, error) {
	cur := cname
	for steps := 0; cur != "" && steps <= len(p.classes); steps++ {
		c := p.classes[cur]
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
	classes := p.Classes()
	perClass := make([][]string, len(classes))
	par.For(len(classes), func(i int) {
		for _, r := range classes[i].ReferencedClasses() {
			if !p.Has(r) {
				perClass[i] = append(perClass[i], r)
			}
		}
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

// CloneClass returns a deep copy of a class.
func CloneClass(c *Class) *Class {
	n := *c
	n.Interfaces = append([]string(nil), c.Interfaces...)
	n.Fields = append([]Field(nil), c.Fields...)
	n.Methods = make([]*Method, len(c.Methods))
	for i, m := range c.Methods {
		n.Methods[i] = CloneMethod(m)
	}
	return &n
}

// CloneMethod returns a deep copy of a method.
func CloneMethod(m *Method) *Method {
	n := *m
	n.Params = append([]Type(nil), m.Params...)
	n.Handlers = append([]TryHandler(nil), m.Handlers...)
	n.Code = make([]Instr, len(m.Code))
	for i, in := range m.Code {
		ci := in
		if in.TypeRef != nil {
			t := *in.TypeRef
			ci.TypeRef = &t
		}
		n.Code[i] = ci
	}
	return &n
}
