package ir

import (
	"iter"
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
	// It is not informational: the runtime tells a generated class, its
	// kind, the class it stands for and a proxy's protocol by this mark
	// (transform.MarkOf), never by its name, so archives must carry it.
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

// Constructors yields the declared constructors in declaration order.
func (c *Class) Constructors() iter.Seq[*Method] {
	return c.methodsWhere(func(m *Method) bool { return m.IsConstructor() })
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

// InstanceFields yields the declared non-static fields in declaration
// order.
func (c *Class) InstanceFields() iter.Seq[Field] {
	return c.fieldsWhere(false)
}

// StaticFields yields the declared static fields in declaration order.
func (c *Class) StaticFields() iter.Seq[Field] {
	return c.fieldsWhere(true)
}

// InstanceMethods yields the declared non-static, non-constructor methods
// in declaration order.
func (c *Class) InstanceMethods() iter.Seq[*Method] {
	return c.methodsWhere(func(m *Method) bool { return !m.Static && !m.IsConstructor() })
}

// StaticMethods yields the declared static methods, <clinit> excluded, in
// declaration order.
func (c *Class) StaticMethods() iter.Seq[*Method] {
	return c.methodsWhere(func(m *Method) bool { return m.Static && !m.IsStaticInit() })
}

// fieldsWhere and methodsWhere are the member filters' one loop each:
// they yield in place, so a filter allocates nothing.
func (c *Class) fieldsWhere(static bool) iter.Seq[Field] {
	return func(yield func(Field) bool) {
		for _, f := range c.Fields {
			if f.Static == static && !yield(f) {
				return
			}
		}
	}
}

func (c *Class) methodsWhere(keep func(*Method) bool) iter.Seq[*Method] {
	return func(yield func(*Method) bool) {
		for _, m := range c.Methods {
			if keep(m) && !yield(m) {
				return
			}
		}
	}
}

// VisitReferences calls visit with the name of every class or interface
// that c references: its super and interface clauses, field types,
// method signatures, handler catch classes and instruction operands.  A
// name is visited once per mention, so it may repeat, and c's own name
// may be among them; the walk allocates nothing.
func (c *Class) VisitReferences(visit func(name string)) {
	visitType := func(t Type) {
		if b := t.BaseElem(); b.Kind == KindRef {
			visit(b.Name)
		}
	}
	if c.Super != "" {
		visit(c.Super)
	}
	for _, i := range c.Interfaces {
		visit(i)
	}
	for _, f := range c.Fields {
		visitType(f.Type)
	}
	for _, m := range c.Methods {
		for _, p := range m.Params {
			visitType(p)
		}
		visitType(m.Return)
		for _, h := range m.Handlers {
			if h.CatchClass != "" {
				visit(h.CatchClass)
			}
		}
		for _, in := range m.Code {
			if in.Owner != "" {
				visit(in.Owner)
			}
			if in.TypeRef != nil {
				visitType(*in.TypeRef)
			}
		}
	}
}
