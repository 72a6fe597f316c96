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

// Name suffixes of generated classes, following the paper's naming.
const (
	SuffixOInt     = "_O_Int"
	SuffixOLocal   = "_O_Local"
	SuffixOProxy   = "_O_Proxy_"
	SuffixCInt     = "_C_Int"
	SuffixCLocal   = "_C_Local"
	SuffixCProxy   = "_C_Proxy_"
	SuffixOFactory = "_O_Factory"
	SuffixCFactory = "_C_Factory"
)

// Property-method prefixes (§2.1: every attribute becomes a property).
const (
	GetPrefix = "get_"
	SetPrefix = "set_"
)

// Proxy bookkeeping fields present on every generated proxy class.  The
// node runtime reads/writes them directly at the VM level.
const (
	ProxyFieldGUID     = "__guid"
	ProxyFieldEndpoint = "__endpoint"
	ProxyFieldProto    = "__proto"
	ProxyFieldTarget   = "__target" // remote class name
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
func OInt(a string) string { return a + SuffixOInt }

// OLocal returns the local instance-implementation name for class a.
func OLocal(a string) string { return a + SuffixOLocal }

// OProxy returns the instance-proxy name for class a over a protocol.
func OProxy(a, proto string) string { return a + SuffixOProxy + proto }

// CInt returns the class-interface (statics) name for class a.
func CInt(a string) string { return a + SuffixCInt }

// CLocal returns the local statics-implementation name for class a.
func CLocal(a string) string { return a + SuffixCLocal }

// CProxy returns the statics-proxy name for class a over a protocol.
func CProxy(a, proto string) string { return a + SuffixCProxy + proto }

// OFactory returns the object-factory name for class a.
func OFactory(a string) string { return a + SuffixOFactory }

// CFactory returns the class-factory name for class a.
func CFactory(a string) string { return a + SuffixCFactory }

// Getter and Setter name the property methods for a field.
func Getter(field string) string { return GetPrefix + field }

// Setter names the property setter for a field.
func Setter(field string) string { return SetPrefix + field }

// BaseOfGenerated recovers the original class name from a generated name
// and reports the generated kind ("", if name is not generated).
func BaseOfGenerated(name string) (base, kind string) {
	for _, s := range []string{SuffixOInt, SuffixOLocal, SuffixCInt, SuffixCLocal, SuffixOFactory, SuffixCFactory} {
		if strings.HasSuffix(name, s) {
			return strings.TrimSuffix(name, s), s
		}
	}
	if i := strings.LastIndex(name, SuffixOProxy); i > 0 {
		return name[:i], SuffixOProxy
	}
	if i := strings.LastIndex(name, SuffixCProxy); i > 0 {
		return name[:i], SuffixCProxy
	}
	return "", ""
}

// Meta marks of generated proxy classes, followed by "<protocol>:<base>".
// A declared class may share a proxy's name but never its mark.
const (
	metaOProxy = "generated:o-proxy:"
	metaCProxy = "generated:c-proxy:"
)

// ProxyOf reports whether c is a generated proxy class and, if so, the
// original class it stands for, its protocol and whether it is a
// statics (class-side) proxy.
func ProxyOf(c *ir.Class) (base, proto string, classSide, ok bool) {
	if c == nil {
		return "", "", false, false
	}
	rest, ok := strings.CutPrefix(c.Meta, metaOProxy)
	if !ok {
		rest, ok = strings.CutPrefix(c.Meta, metaCProxy)
		classSide = ok
	}
	if ok {
		proto, base, _ = strings.Cut(rest, ":")
	}
	return base, proto, classSide, ok
}

// A transformable class's generated classes by slot, in the order
// Transform emits them: the six below, then an _O_Proxy_ and a _C_Proxy_
// per protocol (oProxySlot, cProxySlot).
const (
	slotOInt = iota
	slotOLocal
	slotCInt
	slotCLocal
	slotOFactory
	slotCFactory
	fixedSlots
)

// fixedSlotNames are the fixed slots' name suffixes and Meta mark
// prefixes.
var fixedSlotNames = [fixedSlots]struct{ suffix, meta string }{
	{SuffixOInt, "generated:o-int:"},
	{SuffixOLocal, "generated:o-local:"},
	{SuffixCInt, "generated:c-int:"},
	{SuffixCLocal, "generated:c-local:"},
	{SuffixOFactory, "generated:o-factory:"},
	{SuffixCFactory, "generated:c-factory:"},
}

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
	for _, s := range fixedSlotNames {
		piece([4]string{base, s.suffix})
		piece([4]string{s.meta, base})
	}
	for _, p := range protocols {
		piece([4]string{base, SuffixOProxy, p})
		piece([4]string{metaOProxy, p, ":", base})
		piece([4]string{base, SuffixCProxy, p})
		piece([4]string{metaCProxy, p, ":", base})
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
	base, _, classSide, ok := ProxyOf(c)
	switch {
	case !ok:
		return ""
	case classSide:
		return CLocal(base)
	}
	return OLocal(base)
}
