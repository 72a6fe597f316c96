// Package verifier checks IR programs before execution or
// transformation, standing in for the JVM bytecode verifier: the paper
// relies on transformations being "performed on code that has already
// been verified by a standard compiler".  The front end's output and the
// transformer's output are both verified in tests, which guards the
// transformation's structural correctness independently of execution.
// The interpreter runs CheckMethod on each method's first activation,
// and on each native when it binds, and refuses a method that fails it,
// so the code it runs has the shape and the kinds this package checks:
// operands that resolve, jumps and slots in range, one bounded stack
// depth at every instruction, every operand of the kind its instruction
// takes and every store, argument and return of a kind that fits its
// declared type (ir.Depths), and overrides that declare the kinds of the
// methods they override.  Class names are not tracked: whether a
// reference's class has a field or method is checked when it runs.
package verifier

import (
	"fmt"

	"rafda/internal/ir"
	"rafda/internal/par"
)

// Error is one verification failure.
type Error struct {
	Class  string
	Method string // empty for class-level problems
	PC     int    // -1 when not code-related
	Msg    string
}

func (e *Error) Error() string {
	switch {
	case e.Method == "":
		return fmt.Sprintf("%s: %s", e.Class, e.Msg)
	case e.PC < 0:
		return fmt.Sprintf("%s.%s: %s", e.Class, e.Method, e.Msg)
	default:
		return fmt.Sprintf("%s.%s pc=%d: %s", e.Class, e.Method, e.PC, e.Msg)
	}
}

// Verify checks the whole program and returns every problem found.  The
// per-class checks fan out across cores (par.For); each class's errors
// merge in program order, so the list is the same at any GOMAXPROCS.
func Verify(p *ir.Program) []error {
	v := &verifier{p: p}
	for _, missing := range p.MissingReferences() {
		v.errs = append(v.errs, &Error{Class: missing, PC: -1, Msg: "referenced class is missing from the program"})
	}
	classes := p.Classes()
	v.checkHierarchy(classes)
	perClass := make([][]error, len(classes))
	par.For(len(classes), func(i int) {
		cv := &verifier{p: p}
		cv.checkClass(classes[i])
		perClass[i] = cv.errs
	})
	for _, errs := range perClass {
		v.errs = append(v.errs, errs...)
	}
	return v.errs
}

// CheckMethod checks one method of class c as Verify does, and returns
// the first problem found or, when there is none, the deepest operand
// stack that any path through the method's code holds and, for each pc
// of a field access, the declared type of the field it resolved to.
func CheckMethod(p *ir.Program, c *ir.Class, m *ir.Method) (deepest int, fields []*ir.Type, err error) {
	v := &verifier{p: p, kept: new(codeTables)}
	deepest = v.checkMethod(c, m)
	if len(v.errs) > 0 {
		return 0, nil, v.errs[0]
	}
	return deepest, v.kept.field, nil
}

type verifier struct {
	p    *ir.Program
	errs []error
	kept *codeTables // CheckMethod's tables, which it returns; nil: checkCode recycles pooled ones
}

func (v *verifier) errf(class, method string, pc int, format string, a ...any) {
	v.errs = append(v.errs, &Error{Class: class, Method: method, PC: pc, Msg: fmt.Sprintf(format, a...)})
}

// checkHierarchy detects superclass/interface cycles: a depth-first walk
// whose colours are kept by program position (ir.Program.Index).
func (v *verifier) checkHierarchy(classes []*ir.Class) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make([]uint8, len(classes))
	var visit func(i int) bool
	visit = func(i int) bool {
		switch state[i] {
		case grey:
			return false
		case black:
			return true
		}
		state[i] = grey
		c := classes[i]
		if j := v.p.Index(c.Super); j >= 0 {
			if !visit(j) {
				v.errf(c.Name, "", -1, "superclass cycle through %s", c.Super)
			}
		}
		for _, iface := range c.Interfaces {
			if j := v.p.Index(iface); j >= 0 {
				if !visit(j) {
					v.errf(c.Name, "", -1, "interface cycle through %s", iface)
				}
			}
		}
		state[i] = black
		return true
	}
	for i := range classes {
		visit(i)
	}
}

func (v *verifier) checkClass(c *ir.Class) {
	// Superclass constraints.
	if c.Super != "" {
		if sc := v.p.Class(c.Super); sc != nil {
			if sc.IsInterface {
				v.errf(c.Name, "", -1, "superclass %s is an interface", c.Super)
			}
			if sc.Final {
				v.errf(c.Name, "", -1, "superclass %s is final", c.Super)
			}
		}
	}
	if c.IsInterface {
		if c.Super != "" {
			v.errf(c.Name, "", -1, "interface has a superclass")
		}
		if len(c.Fields) > 0 {
			v.errf(c.Name, "", -1, "interface declares fields")
		}
	}
	for _, i := range c.Interfaces {
		if ic := v.p.Class(i); ic != nil && !ic.IsInterface {
			v.errf(c.Name, "", -1, "implements non-interface %s", i)
		}
	}
	// Member uniqueness.
	fields := map[string]bool{}
	for _, f := range c.Fields {
		if fields[f.Name] {
			v.errf(c.Name, "", -1, "duplicate field %s", f.Name)
		}
		fields[f.Name] = true
		v.checkType(c.Name, "", f.Type, false)
	}
	for _, m := range c.Methods {
		// The lookup answers the first method of a name and arity.
		if c.Method(m.Name, len(m.Params)) != m {
			v.errf(c.Name, m.Name, -1, "duplicate method (same name and arity)")
		}
		v.checkMethod(c, m)
	}
	// Concrete classes must implement their interfaces.
	if !c.IsInterface && !c.Abstract {
		v.checkImplements(c)
	}
}

func (v *verifier) checkImplements(c *ir.Class) {
	seen := map[string]bool{}
	var require func(iface string)
	require = func(iface string) {
		if seen[iface] {
			return
		}
		seen[iface] = true
		ic := v.p.Class(iface)
		if ic == nil {
			return
		}
		for _, m := range ic.Methods {
			dc, dm, err := v.p.ResolveMethod(c.Name, m.Name, len(m.Params))
			switch {
			case err != nil || dm.Abstract:
				v.errf(c.Name, "", -1, "does not implement %s.%s/%d", iface, m.Name, len(m.Params))
			case dc != c && !dm.SameTypes(m):
				// An inherited implementation: the inheriting class is
				// the first to meet the interface.
				v.errf(c.Name, "", -1, "implements %s.%s with %s.%s", iface, m.Signature(), dc.Name, dm.Signature())
			}
		}
		for _, super := range ic.Interfaces {
			require(super)
		}
	}
	visited := map[string]bool{}
	for cur := c; cur != nil && !visited[cur.Name]; {
		visited[cur.Name] = true
		for _, i := range cur.Interfaces {
			require(i)
		}
		if cur.Super == "" {
			break
		}
		cur = v.p.Class(cur.Super)
	}
	// Abstract methods inherited from abstract superclasses must be
	// overridden somewhere in the chain.
	visited = map[string]bool{c.Name: true}
	for cur := v.classOf(c.Super); cur != nil && !visited[cur.Name]; cur = v.classOf(cur.Super) {
		visited[cur.Name] = true
		for _, m := range cur.Methods {
			if !m.Abstract {
				continue
			}
			if _, dm, err := v.p.ResolveMethod(c.Name, m.Name, len(m.Params)); err != nil || dm.Abstract {
				v.errf(c.Name, "", -1, "abstract method %s.%s/%d not implemented", cur.Name, m.Name, len(m.Params))
			}
		}
	}
}

// checkOverride checks that m declares the parameter and return types
// of each method it overrides or implements: the one its superclass
// chain resolves, and the one each of its class's interfaces does.  The
// interpreter dispatches a call that the caller's code was verified
// against the overridden method, so the two must agree.  Constructors
// and static initialisers override nothing, and neither does a static
// method of a static one: calls of those are never dispatched.
func (v *verifier) checkOverride(c *ir.Class, m *ir.Method) {
	if m.IsConstructor() || m.IsStaticInit() {
		return
	}
	check := func(from string) {
		dc, dm := v.p.LookupMethod(from, m.Name, len(m.Params))
		if dm != nil && !(m.Static && dm.Static) && !m.SameTypes(dm) {
			v.errf(c.Name, m.Name, -1, "declares %s but overrides %s.%s", m.Signature(), dc.Name, dm.Signature())
		}
	}
	if c.Super != "" {
		check(c.Super)
	}
	for _, i := range c.Interfaces {
		check(i)
	}
}

func (v *verifier) classOf(name string) *ir.Class {
	if name == "" {
		return nil
	}
	return v.p.Class(name)
}

func (v *verifier) checkType(class, method string, t ir.Type, allowVoid bool) {
	base := t.BaseElem()
	if base.Kind == ir.KindVoid && (!allowVoid || t.IsArray()) {
		v.errf(class, method, -1, "void used as a value type")
	}
	if base.Kind == ir.KindRef && !v.p.Has(base.Name) {
		v.errf(class, method, -1, "unknown type %s", base.Name)
	}
}

// checkMethod reports m's problems and returns the deepest stack of its
// code.
func (v *verifier) checkMethod(c *ir.Class, m *ir.Method) (deepest int) {
	for _, pt := range m.Params {
		v.checkType(c.Name, m.Name, pt, false)
	}
	v.checkType(c.Name, m.Name, m.Return, true)

	switch {
	case m.Abstract && len(m.Code) > 0:
		v.errf(c.Name, m.Name, -1, "abstract method has code")
	case m.Native && len(m.Code) > 0:
		v.errf(c.Name, m.Name, -1, "native method has code")
	case m.Abstract && m.Native:
		v.errf(c.Name, m.Name, -1, "method is both abstract and native")
	case c.IsInterface && !m.Abstract:
		v.errf(c.Name, m.Name, -1, "interface method must be abstract")
	case !m.Abstract && !m.Native && len(m.Code) == 0:
		v.errf(c.Name, m.Name, -1, "concrete method has no code")
	}
	if m.IsConstructor() && m.Static {
		v.errf(c.Name, m.Name, -1, "constructor cannot be static")
	}
	v.checkOverride(c, m)
	if m.IsStaticInit() && !m.Static {
		v.errf(c.Name, m.Name, -1, "<clinit> must be static")
	}
	if len(m.Code) > 0 {
		deepest = v.checkCode(c, m)
	}
	for _, h := range m.Handlers {
		if h.Start < 0 || h.End > len(m.Code) || h.Start >= h.End {
			v.errf(c.Name, m.Name, -1, "handler range [%d,%d) invalid", h.Start, h.End)
		}
		if h.Target < 0 || h.Target >= len(m.Code) {
			v.errf(c.Name, m.Name, -1, "handler target %d out of range", h.Target)
		}
		if h.CatchClass != "" && !v.p.Has(h.CatchClass) {
			v.errf(c.Name, m.Name, -1, "handler catches unknown class %s", h.CatchClass)
		}
	}
	return deepest
}
