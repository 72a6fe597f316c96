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
