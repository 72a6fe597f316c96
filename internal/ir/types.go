// Package ir defines the class-based intermediate representation on which
// the RAFDA transformations operate.
//
// The paper's transformations are defined over JVM class files manipulated
// with BCEL.  This package provides the equivalent substrate: classes with
// instance and static fields, methods, constructors, interfaces, native
// methods and a stack-based instruction set.  Programs are sets of classes;
// they can be verified (internal/verifier), executed (internal/vm),
// transformed (internal/transform) and serialised to a compact binary form.
package ir

import (
	"fmt"
	"strings"
)

// Kind enumerates the primitive categories of the IR type system.
type Kind uint8

// Type kinds.  Numeric values are part of the binary encoding; do not
// reorder.
const (
	KindInvalid Kind = iota
	KindVoid
	KindBool
	KindInt // 64-bit signed integer (covers the paper's int and long)
	KindFloat
	KindString
	KindRef   // reference to a class or interface instance
	KindArray // array of Elem
)

func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindRef:
		return "ref"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Type describes the static type of a value, field, parameter or return.
// The zero value is invalid; use the constructors below.
type Type struct {
	Kind Kind
	Name string // class or interface name, for KindRef
	Elem *Type  // element type, for KindArray
}

// Predefined primitive types.  These are value prototypes: Type is treated
// as immutable, so sharing is safe.
var (
	Void   = Type{Kind: KindVoid}
	Bool   = Type{Kind: KindBool}
	Int    = Type{Kind: KindInt}
	Float  = Type{Kind: KindFloat}
	String = Type{Kind: KindString}
)

// Ref returns a reference type naming a class or interface.
func Ref(name string) Type { return Type{Kind: KindRef, Name: name} }

// ArrayOf returns the array type with the given element type.
func ArrayOf(elem Type) Type {
	e := elem
	return Type{Kind: KindArray, Elem: &e}
}

// IsRef reports whether t is a class/interface reference type.
func (t Type) IsRef() bool { return t.Kind == KindRef }

// IsArray reports whether t is an array type.
func (t Type) IsArray() bool { return t.Kind == KindArray }

// IsVoid reports whether t is the void type.
func (t Type) IsVoid() bool { return t.Kind == KindVoid }

// IsNumeric reports whether t supports arithmetic.
func (t Type) IsNumeric() bool { return t.Kind == KindInt || t.Kind == KindFloat }

// Equal reports structural equality of two types.
func (t Type) Equal(o Type) bool {
	if t.Kind != o.Kind || t.Name != o.Name {
		return false
	}
	if t.Kind == KindArray {
		return t.Elem.Equal(*o.Elem)
	}
	return true
}

// SameShape reports whether t and o are the same kind and, for arrays,
// have elements of the same shape; class names do not count.  It is the
// agreement the verifier proves of the values it tracks.
func (t Type) SameShape(o Type) bool {
	for t.Kind == KindArray && o.Kind == KindArray {
		t, o = *t.Elem, *o.Elem
	}
	return t.Kind == o.Kind
}

// BaseElem returns the innermost non-array element type of t.
func (t Type) BaseElem() Type {
	for t.Kind == KindArray {
		t = *t.Elem
	}
	return t
}

// String renders the type in source-like notation, e.g. "int", "X", "X[]".
func (t Type) String() string {
	switch t.Kind {
	case KindRef:
		return t.Name
	case KindArray:
		return t.Elem.String() + "[]"
	default:
		return t.Kind.String()
	}
}

// Descriptor renders a compact single-token descriptor used in encodings
// and symbolic method references: V Z I F S  Lname;  [elem.
func (t Type) Descriptor() string {
	switch t.Kind {
	case KindVoid:
		return "V"
	case KindBool:
		return "Z"
	case KindInt:
		return "I"
	case KindFloat:
		return "F"
	case KindString:
		return "S"
	case KindRef:
		return "L" + t.Name + ";"
	case KindArray:
		return "[" + t.Elem.Descriptor()
	default:
		return "?"
	}
}

// maxArrayDims bounds the array dimensions a descriptor may declare —
// the JVM's limit.  Descriptors arrive from the wire (every marshalled
// array names its element type), so an unbounded prefix of '[' would let
// a peer build a type chain as long as its frame.
const maxArrayDims = 255

// ParseDescriptor parses a descriptor produced by Descriptor.
func ParseDescriptor(s string) (Type, error) {
	dims := 0
	for dims < len(s) && s[dims] == '[' {
		if dims == maxArrayDims {
			return Type{}, fmt.Errorf("descriptor has more than %d array dimensions", maxArrayDims)
		}
		dims++
	}
	t, rest, err := parseBase(s[dims:])
	if err != nil {
		return Type{}, err
	}
	if rest != "" {
		return Type{}, fmt.Errorf("trailing descriptor input %q", rest)
	}
	for range dims {
		t = ArrayOf(t)
	}
	return t, nil
}

// parseBase parses one non-array descriptor from the front of s.
func parseBase(s string) (Type, string, error) {
	if s == "" {
		return Type{}, "", fmt.Errorf("empty type descriptor")
	}
	switch s[0] {
	case 'V':
		return Void, s[1:], nil
	case 'Z':
		return Bool, s[1:], nil
	case 'I':
		return Int, s[1:], nil
	case 'F':
		return Float, s[1:], nil
	case 'S':
		return String, s[1:], nil
	case 'L':
		i := strings.IndexByte(s, ';')
		if i < 0 {
			return Type{}, "", fmt.Errorf("unterminated class descriptor %q", s)
		}
		return Ref(s[1:i]), s[i+1:], nil
	default:
		return Type{}, "", fmt.Errorf("bad type descriptor %q", s)
	}
}

// Access is the visibility of a class member.
type Access uint8

// Member visibility levels.
const (
	AccessPublic Access = iota + 1
	AccessProtected
	AccessPackage
	AccessPrivate
)

func (a Access) String() string {
	switch a {
	case AccessPublic:
		return "public"
	case AccessProtected:
		return "protected"
	case AccessPackage:
		return "package"
	case AccessPrivate:
		return "private"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}
