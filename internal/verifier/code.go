package verifier

import (
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
// resolve and its jump target and slot be in range; then the stack walk
// (ir.Depths) must find no underflow, no join reached at two depths, no
// path falling off the end of the code and no stack deeper than
// maxFrameOperands.  It returns the deepest stack.
func (v *verifier) checkCode(c *ir.Class, m *ir.Method) (deepest int) {
	ok := true
	void := make([]bool, len(m.Code)) // an invoke of a void method
	for pc := range m.Code {
		if !v.checkInstr(c, m, pc, &m.Code[pc], &void[pc]) {
			ok = false
		}
	}
	if !ok {
		return 0
	}
	deepest, fault := ir.Depths(m, void)
	switch {
	case fault != nil:
		v.errf(c.Name, m.Name, fault.PC, "%s", fault.Msg)
	case deepest > maxFrameOperands:
		v.errf(c.Name, m.Name, -1, "stack depth %d above %d", deepest, maxFrameOperands)
	}
	return deepest
}

// checkInstr validates one instruction's operands, and sets *void for an
// invoke whose target returns nothing.
func (v *verifier) checkInstr(c *ir.Class, m *ir.Method, pc int, in *ir.Instr, void *bool) bool {
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
		if _, _, err := v.p.ResolveField(in.Owner, in.Member); err != nil {
			return fail("unresolved field %s.%s", in.Owner, in.Member)
		}

	case ir.OpGetStatic, ir.OpPutStatic:
		if _, f, err := v.p.ResolveField(in.Owner, in.Member); err != nil || !f.Static {
			return fail("unresolved static field %s.%s", in.Owner, in.Member)
		}

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
		*void = dm.Return.IsVoid()

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
