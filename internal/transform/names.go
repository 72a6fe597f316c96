// Package transform implements the paper's contribution: the code
// transformations that turn a non-distributed program into a
// componentised, semantically equivalent one whose distribution
// boundaries are flexible (§2 of the paper).
//
// For every substitutable class A it generates:
//
//   - A_O_Int: interface over A's instance members (§2.1), with
//     implementations A_O_Local and A_O_Proxy_<protocol>;
//   - A_C_Int: interface over A's static members (§2.2), with singleton
//     implementations A_C_Local and A_C_Proxy_<protocol>;
//   - A_O_Factory: object creation (make) and per-constructor
//     initialisation (init) methods (§2.3);
//   - A_C_Factory: class discovery (discover), static initialisation
//     (clinit) and static-access forwarders.
//
// Every reference in transformable code is rewritten to use the extracted
// interfaces, so only make and discover are implementation-aware.
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
// paper's naming, and Meta mark prefix.  A fixed kind's name and mark go
// on with the original class's name, a proxy's with "<protocol>" and
// "<protocol>:<base>".  A declared class may share a generated class's
// name but never its mark.
var kindNames = [kinds]struct{ suffix, mark string }{
	KindOInt:     {"_O_Int", "generated:o-int:"},
	KindOLocal:   {"_O_Local", "generated:o-local:"},
	KindCInt:     {"_C_Int", "generated:c-int:"},
	KindCLocal:   {"_C_Local", "generated:c-local:"},
	KindOFactory: {"_O_Factory", "generated:o-factory:"},
	KindCFactory: {"_C_Factory", "generated:c-factory:"},
	KindOProxy:   {"_O_Proxy_", "generated:o-proxy:"},
	KindCProxy:   {"_C_Proxy_", "generated:c-proxy:"},
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

// OInt returns the instance-interface name for class a.
func OInt(a string) string { return a + kindNames[KindOInt].suffix }

// OLocal returns the local instance-implementation name for class a.
func OLocal(a string) string { return a + kindNames[KindOLocal].suffix }

// OProxy returns the instance-proxy name for class a over a protocol.
func OProxy(a, proto string) string { return a + kindNames[KindOProxy].suffix + proto }

// CInt returns the class-interface (statics) name for class a.
func CInt(a string) string { return a + kindNames[KindCInt].suffix }

// CLocal returns the local statics-implementation name for class a.
func CLocal(a string) string { return a + kindNames[KindCLocal].suffix }

// CProxy returns the statics-proxy name for class a over a protocol.
func CProxy(a, proto string) string { return a + kindNames[KindCProxy].suffix + proto }

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
	Base  string
	Proto string // a proxy's protocol
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
		rest, ok := strings.CutPrefix(c.Meta, kindNames[k].mark)
		if !ok {
			continue
		}
		if !k.Proxy() {
			return Mark{Kind: k, Base: rest}
		}
		if proto, base, ok := strings.Cut(rest, ":"); ok {
			return Mark{Kind: k, Base: base, Proto: proto}
		}
		break
	}
	return Mark{Base: c.Name}
}

// A transformable class's generated classes by slot, in the order
// Transform emits them: the six below, which are the fixed kinds in Kind
// order, then an _O_Proxy_ and a _C_Proxy_ per protocol (oProxySlot,
// cProxySlot).
const (
	slotOInt = iota
	slotOLocal
	slotCInt
	slotCLocal
	slotOFactory
	slotCFactory
	fixedSlots
)

func oProxySlot(j int) int { return fixedSlots + 2*j }
func cProxySlot(j int) int { return fixedSlots + 2*j + 1 }

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
	slots   int // classes per family
}

// newNameTable builds the table for the transformable classes of
// classes (program order) under protocols.  Each family's names and
// marks are substrings of one string built for it.
func newNameTable(classes []*ir.Class, a *Analysis, protocols []string) *nameTable {
	t := &nameTable{props: make(map[string]propNames), slots: fixedSlots + 2*len(protocols)}
	var entries []familyNames
	for i, c := range classes {
		if a.Transformable(c.Name) {
			entries = append(entries, familyNames{index: i})
		}
	}
	strs := make([]string, 2*t.slots*len(entries))
	par.For(len(entries), func(k int) {
		e := &entries[k]
		e.name = strs[2*t.slots*k:][:t.slots:t.slots]
		e.meta = strs[(2*k+1)*t.slots:][:t.slots:t.slots]
		e.build(classes[e.index].Name, protocols)
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

// familyPieces calls piece with the parts of each slot's name and then
// of its Meta mark, in slot order; a piece has at most four parts.
func familyPieces(base string, protocols []string, piece func(parts [4]string)) {
	for _, k := range kindNames[KindOInt : KindCFactory+1] {
		piece([4]string{base, k.suffix})
		piece([4]string{k.mark, base})
	}
	for _, p := range protocols {
		piece([4]string{base, kindNames[KindOProxy].suffix, p})
		piece([4]string{kindNames[KindOProxy].mark, p, ":", base})
		piece([4]string{base, kindNames[KindCProxy].suffix, p})
		piece([4]string{kindNames[KindCProxy].mark, p, ":", base})
	}
}

// build fills e's names and marks for class base, all cut from one
// string.
func (e *familyNames) build(base string, protocols []string) {
	size := 0
	familyPieces(base, protocols, func(parts [4]string) { size += pieceLen(parts) })
	var b strings.Builder
	b.Grow(size)
	familyPieces(base, protocols, func(parts [4]string) {
		for _, s := range parts {
			b.WriteString(s)
		}
	})
	all, k := b.String(), 0
	familyPieces(base, protocols, func(parts [4]string) {
		n := pieceLen(parts)
		if k%2 == 0 {
			e.name[k/2] = all[:n]
		} else {
			e.meta[k/2] = all[:n]
		}
		all, k = all[n:], k+1
	})
}

func pieceLen(parts [4]string) int {
	n := 0
	for _, s := range parts {
		n += len(s)
	}
	return n
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
