package verifier

import (
	"sync"

	"rafda/internal/ir"
)

// Frame limits: a load or store names a slot below maxFrameLocals, and
// no path through a body holds more than maxFrameOperands operands, so
// the interpreter's frame for a verified method is bounded.
const (
	maxFrameLocals   = 1 << 16
	maxFrameOperands = 1 << 10
)

// checkCode checks a method body: every instruction's operands must
// resolve and its jump target and slot be in range; then the walk
// (ir.Depths) must find every operand of the kind its instruction takes,
// and no underflow, no join of two depths or two operand kinds, no load
// of a local unset on some path, no path falling off the end of the code
// and no stack deeper than maxFrameOperands.  It returns the deepest
// stack.
func (v *verifier) checkCode(c *ir.Class, m *ir.Method) (deepest int) {
	ok := true
	t := v.kept
	if t == nil {
		t = tables.Get().(*codeTables)
		defer tables.Put(t)
	}
	callee, field := t.reset(len(m.Code))
	for pc := range m.Code {
		if !v.checkInstr(c, m, pc, &m.Code[pc], &callee[pc], &field[pc]) {
			ok = false
		}
	}
	if !ok {
		return 0
	}
	deepest, fault := ir.Depths(m, callee, field)
	switch {
	case fault != nil:
		v.errf(c.Name, m.Name, fault.PC, "%s", fault.Msg)
	case deepest > maxFrameOperands:
		v.errf(c.Name, m.Name, -1, "stack depth %d above %d", deepest, maxFrameOperands)
	}
	return deepest
}

// codeTables are the per-pc tables checkCode fills: what each invoke
// resolves to and the type of each accessed field.  Verify recycles them
// from method to method; CheckMethod returns its field table.
type codeTables struct {
	callee []*ir.Method
	field  []*ir.Type
}

var tables = sync.Pool{New: func() any { return new(codeTables) }}

// reset returns t's tables for a body of n instructions.  checkInstr
// sets the entry of every invoke and field access, and ir.Depths reads
// no other.
func (t *codeTables) reset(n int) ([]*ir.Method, []*ir.Type) {
	if cap(t.callee) < n {
		t.callee, t.field = make([]*ir.Method, n), make([]*ir.Type, n)
	}
	t.callee, t.field = t.callee[:n], t.field[:n]
	return t.callee, t.field
}

// checkInstr validates one instruction's operands, and sets *callee to
// the method an invoke resolves to and *field to the type of the field a
// field access names.
func (v *verifier) checkInstr(c *ir.Class, m *ir.Method, pc int, in *ir.Instr, callee **ir.Method, field **ir.Type) bool {
	fail := func(format string, a ...any) bool {
		v.errf(c.Name, m.Name, pc, format, a...)
		return false
	}
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		what := "load of"
		if in.Op == ir.OpStore {
			what = "store to"
		}
		switch {
		case in.A < 0:
			return fail("%s negative slot %d", what, in.A)
		case in.A >= maxFrameLocals:
			return fail("%s slot %d at or above %d", what, in.A, maxFrameLocals)
		}

	case ir.OpNew:
		tc := v.p.Class(in.Owner)
		if tc == nil {
			return fail("new of unknown class %s", in.Owner)
		}
		if tc.IsInterface || tc.Abstract {
			return fail("new of non-instantiable %s", in.Owner)
		}

	case ir.OpGetField, ir.OpPutField:
		_, f, err := v.p.ResolveField(in.Owner, in.Member)
		if err != nil {
			return fail("unresolved field %s.%s", in.Owner, in.Member)
		}
		*field = &f.Type

	case ir.OpGetStatic, ir.OpPutStatic:
		_, f, err := v.p.ResolveField(in.Owner, in.Member)
		if err != nil || !f.Static {
			return fail("unresolved static field %s.%s", in.Owner, in.Member)
		}
		*field = &f.Type

	case ir.OpInvokeStatic, ir.OpInvokeVirtual, ir.OpInvokeInterface, ir.OpInvokeSpecial:
		_, dm, err := v.p.ResolveMethod(in.Owner, in.Member, in.NArgs)
		if err != nil {
			return fail("unresolved method %s.%s/%d", in.Owner, in.Member, in.NArgs)
		}
		if in.Op == ir.OpInvokeStatic && !dm.Static {
			return fail("invokestatic of instance method %s.%s", in.Owner, in.Member)
		}
		if in.Op != ir.OpInvokeStatic && dm.Static {
			return fail("instance invoke of static method %s.%s", in.Owner, in.Member)
		}
		*callee = dm

	case ir.OpNewArray:
		if in.TypeRef == nil {
			return fail("newarray without element type")
		}
		v.checkType(c.Name, m.Name, *in.TypeRef, false)

	case ir.OpCast, ir.OpInstanceOf:
		if in.TypeRef == nil {
			return fail("%s without target type", in.Op)
		}
		v.checkType(c.Name, m.Name, *in.TypeRef, false)

	case ir.OpJump, ir.OpJumpIf, ir.OpJumpIfNot:
		if in.A < 0 || in.A >= int64(len(m.Code)) {
			return fail("jump target %d out of range [0,%d)", in.A, len(m.Code))
		}

	case ir.OpReturn:
		if !m.Return.IsVoid() {
			return fail("void return in non-void method")
		}
	case ir.OpReturnValue:
		if m.Return.IsVoid() {
			return fail("value return in void method")
		}

	default:
		if !in.Op.Valid() {
			return fail("invalid opcode %v", in.Op)
		}
	}
	return true
}
