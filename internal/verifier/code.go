package verifier

import (
	"rafda/internal/ir"
)

// checkCode checks a method body: every instruction's operands must
// resolve and its jump target be in range; then the program's stack walk
// (ir.Program.Depths) must find no underflow, no join reached at two
// depths and no path falling off the end of the code.
func (v *verifier) checkCode(c *ir.Class, m *ir.Method) {
	ok := true
	for pc := range m.Code {
		if !v.checkInstr(c, m, pc, &m.Code[pc]) {
			ok = false
		}
	}
	if !ok {
		return
	}
	if _, fault := v.p.Depths(m); fault != nil {
		v.errf(c.Name, m.Name, fault.PC, "%s", fault.Msg)
	}
}

// checkInstr validates one instruction's operands.
func (v *verifier) checkInstr(c *ir.Class, m *ir.Method, pc int, in *ir.Instr) bool {
	fail := func(format string, a ...any) bool {
		v.errf(c.Name, m.Name, pc, format, a...)
		return false
	}
	switch in.Op {
	case ir.OpLoad:
		if in.A < 0 {
			return fail("load of negative slot %d", in.A)
		}
	case ir.OpStore:
		if in.A < 0 {
			return fail("store to negative slot %d", in.A)
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
