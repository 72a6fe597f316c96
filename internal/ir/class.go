package ir

import (
	"sort"
	"strconv"
	"strings"
)

// Well-known class names of the built-in system hierarchy.  The VM provides
// these classes (see internal/vm's system program); they play the role of
// java.lang.* in the paper: they have special JVM semantics and are
// therefore never transformable (§2.4).
const (
	ObjectClass    = "sys.Object"
	ThrowableClass = "sys.Throwable"
	SystemClass    = "sys.System"
	StringClass    = "sys.StringUtil"
	MathClass      = "sys.Math"
)

// ConstructorName is the reserved method name for constructors.
const ConstructorName = "<init>"

// StaticInitName is the reserved method name for the static initialiser.
const StaticInitName = "<clinit>"

// Field describes an instance or static field of a class.
type Field struct {
	Name   string
	Type   Type
	Static bool
	Final  bool
	Access Access
}

// TryHandler describes one entry of a method's exception handler table:
// if an exception of class CatchClass (or a subclass) is thrown while pc is
// in [Start, End), control transfers to Target with the throwable pushed.
type TryHandler struct {
	Start      int
	End        int
	Target     int
	CatchClass string // empty means catch-all
}

// Method describes a method, constructor (<init>) or static initialiser
// (<clinit>).  A method with Native set has no Code; its behaviour is
// provided by the runtime's native registry under the key "Owner.Name".
type Method struct {
	Name      string
	Params    []Type
	Return    Type
	Static    bool
	Native    bool
	Abstract  bool
	Final     bool
	Access    Access
	Code      []Instr
	Handlers  []TryHandler
	MaxLocals int // locals slots incl. receiver+params; set by codegen
}

// IsConstructor reports whether m is a constructor.
func (m *Method) IsConstructor() bool { return m.Name == ConstructorName }

// IsStaticInit reports whether m is the static initialiser.
func (m *Method) IsStaticInit() bool { return m.Name == StaticInitName }

// Signature renders a symbolic signature such as "m(IF)Lsys.Object;".
func (m *Method) Signature() string {
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('(')
	for _, p := range m.Params {
		b.WriteString(p.Descriptor())
	}
	b.WriteByte(')')
	b.WriteString(m.Return.Descriptor())
	return b.String()
}

// SameTypes reports whether m and o declare parameter and return types
// of the same shape (Type.SameShape): what a call verified against one
// assumes of the other.
func (m *Method) SameTypes(o *Method) bool {
	if !m.Return.SameShape(o.Return) || len(m.Params) != len(o.Params) {
		return false
	}
	for i := range m.Params {
		if !m.Params[i].SameShape(o.Params[i]) {
			return false
		}
	}
	return true
}

// Key identifies a method within a class by name and arity.  The IR, like
// the paper's presentation, does not support overloading on types, only on
// arity (the mini-Java front end enforces this).
func (m *Method) Key() string { return MethodKey(m.Name, len(m.Params)) }

// MethodKey builds the lookup key used by Class method tables.
func MethodKey(name string, nargs int) string {
	return name + "/" + strconv.Itoa(nargs)
}

// Class describes a class or interface.
type Class struct {
	Name        string
	Super       string   // empty for ObjectClass and for interfaces
	Interfaces  []string // implemented (class) or extended (interface)
	IsInterface bool
	Abstract    bool
	Final       bool
	// Special marks classes with VM-level semantics (the sys.* hierarchy
	// and anything the front end flags): such classes are never
	// transformable, mirroring the paper's JVM-special classes.
	Special bool
	Fields  []Field
	Methods []*Method

	// Meta records provenance, e.g. "generated:o-proxy:soap:Counter".
	// It is not informational: the runtime tells a generated proxy by
	// this mark (transform.ProxyOf), never by its name, so archives must
	// carry it.
	Meta string

	// byKey indexes indexed, the method list as Program.Add found it, by
	// name and arity (see Method).
	byKey   map[methodKey]*Method
	indexed []*Method
}

type methodKey struct {
	name  string
	nargs int
}

// methodIndexMin is the shortest method list Program.Add indexes: a
// shorter one is as quick to scan.
const methodIndexMin = 16

// indexMethods indexes c's methods by name and arity, the first of a
// name and arity winning as in a scan, unless the index it has is still
// current (a class added to a second program is not written again).
func (c *Class) indexMethods() {
	if len(c.Methods) < methodIndexMin || c.indexCurrent() {
		return
	}
	idx := make(map[methodKey]*Method, len(c.Methods))
	for _, m := range c.Methods {
		k := methodKey{m.Name, len(m.Params)}
		if idx[k] == nil {
			idx[k] = m
		}
	}
	c.byKey, c.indexed = idx, c.Methods
}

// indexCurrent reports whether c's index was built over its method list
// as it is now: the same backing array and length.  A list appended to,
// or replaced, since Program.Add is scanned instead.
func (c *Class) indexCurrent() bool {
	return c.byKey != nil && len(c.indexed) == len(c.Methods) && &c.indexed[0] == &c.Methods[0]
}

// Field returns the field declared in c (not supers) with the given name.
func (c *Class) Field(name string) *Field {
	for i := range c.Fields {
		if c.Fields[i].Name == name {
			return &c.Fields[i]
		}
	}
	return nil
}

// Method returns the method declared in c with the given name and arity.
func (c *Class) Method(name string, nargs int) *Method {
	if c.indexCurrent() {
		return c.byKey[methodKey{name, nargs}]
	}
	for _, m := range c.Methods {
		if m.Name == name && len(m.Params) == nargs {
			return m
		}
	}
	return nil
}

// Constructors returns the declared constructors in declaration order.
func (c *Class) Constructors() []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if m.IsConstructor() {
			out = append(out, m)
		}
	}
	return out
}

// StaticInit returns the static initialiser, or nil.
func (c *Class) StaticInit() *Method {
	for _, m := range c.Methods {
		if m.IsStaticInit() {
			return m
		}
	}
	return nil
}

// HasNativeMethod reports whether any declared method is native.
func (c *Class) HasNativeMethod() bool {
	for _, m := range c.Methods {
		if m.Native {
			return true
		}
	}
	return false
}

// InstanceFields returns declared non-static fields.
func (c *Class) InstanceFields() []Field {
	var out []Field
	for _, f := range c.Fields {
		if !f.Static {
			out = append(out, f)
		}
	}
	return out
}

// StaticFields returns declared static fields.
func (c *Class) StaticFields() []Field {
	var out []Field
	for _, f := range c.Fields {
		if f.Static {
			out = append(out, f)
		}
	}
	return out
}

// InstanceMethods returns declared non-static, non-constructor methods.
func (c *Class) InstanceMethods() []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if !m.Static && !m.IsConstructor() {
			out = append(out, m)
		}
	}
	return out
}

// StaticMethods returns declared static methods excluding <clinit>.
func (c *Class) StaticMethods() []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if m.Static && !m.IsStaticInit() {
			out = append(out, m)
		}
	}
	return out
}

// ReferencedClasses returns the names of every class or interface that c
// references: in its super/interface clauses, field types, method
// signatures, and instruction operands.  The result is sorted and
// duplicate-free and excludes c itself.
func (c *Class) ReferencedClasses() []string {
	set := map[string]bool{}
	addType := func(t Type) {
		b := t.BaseElem()
		if b.Kind == KindRef {
			set[b.Name] = true
		}
	}
	if c.Super != "" {
		set[c.Super] = true
	}
	for _, i := range c.Interfaces {
		set[i] = true
	}
	for _, f := range c.Fields {
		addType(f.Type)
	}
	for _, m := range c.Methods {
		for _, p := range m.Params {
			addType(p)
		}
		addType(m.Return)
		for _, h := range m.Handlers {
			if h.CatchClass != "" {
				set[h.CatchClass] = true
			}
		}
		for _, in := range m.Code {
			if in.Owner != "" {
				set[in.Owner] = true
			}
			if in.TypeRef != nil {
				addType(*in.TypeRef)
			}
		}
	}
	delete(set, c.Name)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
