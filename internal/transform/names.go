// Package transform implements the paper's contribution: the code
// transformations that turn a non-distributed program into a
// componentised, semantically equivalent one whose distribution
// boundaries are flexible (§2 of the paper).
//
// For every substitutable class A it generates:
//
//   - A_O_Int: interface over A's instance members (§2.1), with
//     implementations A_O_Local and A_O_Proxy;
//   - A_C_Int: interface over A's static members (§2.2), with singleton
//     implementations A_C_Local and A_C_Proxy;
//   - A_O_Factory: object creation (make) and per-constructor
//     initialisation (init) methods (§2.3);
//   - A_C_Factory: class discovery (discover), static initialisation
//     (clinit) and static-access forwarders.
//
// Every reference in transformable code is rewritten to use the extracted
// interfaces, so only make and discover are implementation-aware.
//
// The paper generates one proxy per protocol (A_O_Proxy_SOAP, ...),
// because a Java proxy's code is its protocol's code.  Here every proxy
// method is a native the node runtime binds to one remote invocation
// that goes wherever the proxy's endpoint points, so a family has one
// proxy pair and the endpoint's scheme names the transport.
package transform

import (
	"strings"

	"rafda/internal/ir"
	"rafda/internal/par"
)

// Kind is what a class is to the runtime: a declared class, or one of
// the classes Transform generates for a transformable class.
type Kind uint8

const (
	KindDeclared Kind = iota
	KindOInt
	KindOLocal
	KindCInt
	KindCLocal
	KindOFactory
	KindCFactory
	KindOProxy
	KindCProxy
	kinds
)

// Proxy reports whether k is an instance or a statics proxy.
func (k Kind) Proxy() bool { return k == KindOProxy || k == KindCProxy }

// kindNames are each generated kind's name suffix, following the
// paper's naming, and Meta mark prefix; both go on with the original
// class's name.  A declared class may share a generated class's name
// but never its mark.
var kindNames = [kinds]struct{ suffix, mark string }{
	KindOInt:     {"_O_Int", "generated:o-int:"},
	KindOLocal:   {"_O_Local", "generated:o-local:"},
	KindCInt:     {"_C_Int", "generated:c-int:"},
	KindCLocal:   {"_C_Local", "generated:c-local:"},
	KindOFactory: {"_O_Factory", "generated:o-factory:"},
	KindCFactory: {"_C_Factory", "generated:c-factory:"},
	KindOProxy:   {"_O_Proxy", "generated:o-proxy:"},
	KindCProxy:   {"_C_Proxy", "generated:c-proxy:"},
}

// Property-method prefixes (§2.1: every attribute becomes a property).
const (
	GetPrefix = "get_"
	SetPrefix = "set_"
)

// The two fields every generated proxy declares: the GUID and endpoint
// of the object it stands for, which the node runtime reads and writes
// at the VM level.  The proxy's mark names the rest of the reference.
const (
	ProxyFieldGUID     = "__guid"
	ProxyFieldEndpoint = "__endpoint"
)

// Factory method names (§2.3).
const (
	MakeMethod     = "make"
	InitMethod     = "init"
	DiscoverMethod = "discover"
	ClinitMethod   = "clinit"
	SingletonField = "me"
	SingletonGet   = "get_me"
)

// OLocal returns the local instance-implementation name for class a.
func OLocal(a string) string { return a + kindNames[KindOLocal].suffix }

// OProxy returns the instance-proxy name for class a.
func OProxy(a string) string { return a + kindNames[KindOProxy].suffix }

// CLocal returns the local statics-implementation name for class a.
func CLocal(a string) string { return a + kindNames[KindCLocal].suffix }

// CProxy returns the statics-proxy name for class a.
func CProxy(a string) string { return a + kindNames[KindCProxy].suffix }

// OFactory returns the object-factory name for class a.
func OFactory(a string) string { return a + kindNames[KindOFactory].suffix }

// CFactory returns the class-factory name for class a.
func CFactory(a string) string { return a + kindNames[KindCFactory].suffix }

// Getter and Setter name the property methods for a field.
func Getter(field string) string { return GetPrefix + field }

// Setter names the property setter for a field.
func Setter(field string) string { return SetPrefix + field }

// Mark is what a class's Meta mark says of it.
type Mark struct {
	Kind Kind
	// Base is the class it stands for: a generated class's original
	// class, a declared class itself.
	Base string
}

// MarkOf reads c's Meta mark.  It is the one way the runtime learns
// whether a class is generated, of which kind and for which class: a
// class with no generated mark is KindDeclared, whatever its name.
func MarkOf(c *ir.Class) Mark {
	if c == nil {
		return Mark{}
	}
	if !strings.HasPrefix(c.Meta, "generated:") {
		return Mark{Base: c.Name}
	}
	for k := KindOInt; k < kinds; k++ {
		if base, ok := strings.CutPrefix(c.Meta, kindNames[k].mark); ok {
			return Mark{Kind: k, Base: base}
		}
	}
	return Mark{Base: c.Name}
}

// A transformable class's generated classes by slot, in the order
// Transform emits them: the generated kinds in Kind order.
const (
	slotOInt = iota
	slotOLocal
	slotCInt
	slotCLocal
	slotOFactory
	slotCFactory
	slotOProxy
	slotCProxy
	familySize
)

// familyNames is one transformable class's name-table entry: the name
// and Meta mark of each class of its family, by slot.
type familyNames struct {
	index int // the class's position in the source program
	name  []string
	meta  []string
}

// propNames are one field name's property methods.
type propNames struct{ get, set string }

// nameTable is what a rewrite site or builder asks of a class name — is
// the class transformable, and what is each of its generated classes
// called — answered by one lookup, and the get_/set_ names of every
// field a transformable class declares.  Transform builds it before the
// fan-out and its workers only read it.
type nameTable struct {
	byClass map[string]*familyNames // transformable classes only
	props   map[string]propNames
}

// newNameTable builds the table for the transformable classes of
// classes (program order).  Each family's names and marks are
// substrings of one string built for it.
func newNameTable(classes []*ir.Class, a *Analysis) *nameTable {
	t := &nameTable{props: make(map[string]propNames)}
	var entries []familyNames
	for i, c := range classes {
		if a.Transformable(c.Name) {
			entries = append(entries, familyNames{index: i})
		}
	}
	strs := make([]string, 2*familySize*len(entries))
	par.For(len(entries), func(k int) {
		e := &entries[k]
		e.name = strs[2*familySize*k:][:familySize:familySize]
		e.meta = strs[(2*k+1)*familySize:][:familySize:familySize]
		e.build(classes[e.index].Name)
	})
	t.byClass = make(map[string]*familyNames, len(entries))
	for k := range entries {
		c := classes[entries[k].index]
		t.byClass[c.Name] = &entries[k]
		for _, f := range c.Fields {
			if _, ok := t.props[f.Name]; !ok {
				both := GetPrefix + f.Name + SetPrefix + f.Name
				t.props[f.Name] = propNames{both[:len(both)/2], both[len(both)/2:]}
			}
		}
	}
	return t
}

// build fills e's names and marks for class base, by slot, all cut
// from one string.
func (e *familyNames) build(base string) {
	generated := kindNames[KindOInt:]
	size := 0
	for _, k := range generated {
		size += 2*len(base) + len(k.suffix) + len(k.mark)
	}
	var b strings.Builder
	b.Grow(size)
	for _, k := range generated {
		b.WriteString(base)
		b.WriteString(k.suffix)
		b.WriteString(k.mark)
		b.WriteString(base)
	}
	all := b.String()
	for slot, k := range generated {
		name, meta := len(base)+len(k.suffix), len(k.mark)+len(base)
		e.name[slot], e.meta[slot] = all[:name], all[name:name+meta]
		all = all[name+meta:]
	}
}

// of returns class's entry, or nil if class is not transformable.
func (t *nameTable) of(class string) *familyNames { return t.byClass[class] }

// getter and setter name field's property methods.  A name no
// transformable class declares (code naming a missing field) is built.
func (t *nameTable) getter(field string) string {
	if p, ok := t.props[field]; ok {
		return p.get
	}
	return Getter(field)
}

func (t *nameTable) setter(field string) string {
	if p, ok := t.props[field]; ok {
		return p.set
	}
	return Setter(field)
}

// mapType rewrites reference types of transformable classes to their
// extracted instance interfaces (§2.1: "affected type signatures ... must
// be adapted to use the interfaces").  A type that maps to itself is
// returned as it is, sharing its element (ir.Type is immutable).
func (t *nameTable) mapType(ty ir.Type) ir.Type {
	switch ty.Kind {
	case ir.KindRef:
		if n := t.of(ty.Name); n != nil {
			return ir.Ref(n.name[slotOInt])
		}
	case ir.KindArray:
		if e := t.mapType(*ty.Elem); e != *ty.Elem {
			return ir.ArrayOf(e)
		}
	}
	return ty
}

// mapTypes maps src into dst, which has its length.
func (t *nameTable) mapTypes(dst, src []ir.Type) {
	for i, ty := range src {
		dst[i] = t.mapType(ty)
	}
}

// proxyTwin is ReadOnly's effects alias: a generated proxy's natives
// forward to the local class of the same side.
func proxyTwin(c *ir.Class) string {
	switch m := MarkOf(c); m.Kind {
	case KindOProxy:
		return OLocal(m.Base)
	case KindCProxy:
		return CLocal(m.Base)
	}
	return ""
}
