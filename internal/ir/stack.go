package ir

import "fmt"

// StackEffect returns how many operands in pops and pushes.  An invoke
// pushes its result unless its target resolves to a void method, so an
// unresolvable target counts as pushing one; an invalid opcode moves
// nothing.
func (p *Program) StackEffect(in *Instr) (pops, pushes int) {
	void := false
	switch in.Op {
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeSpecial:
		_, m, err := p.ResolveMethod(in.Owner, in.Member, in.NArgs)
		void = err == nil && m.Return.IsVoid()
	}
	return effect(in, void)
}

// effect is StackEffect for an instruction whose invoke target, if it
// has one, is already resolved: void says that it returns nothing.
func effect(in *Instr, void bool) (pops, pushes int) {
	switch in.Op {
	case OpConstInt, OpConstFloat, OpConstString, OpConstBool, OpConstNull,
		OpLoad, OpNew, OpGetStatic:
		return 0, 1
	case OpStore, OpPop, OpPutStatic, OpJumpIf, OpJumpIfNot,
		OpReturnValue, OpThrow:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpSwap:
		return 2, 2
	case OpGetField, OpNewArray, OpArrayLen, OpNeg, OpNot, OpCast, OpInstanceOf:
		return 1, 1
	case OpPutField:
		return 2, 0
	case OpALoad, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpConcat,
		OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		return 2, 1
	case OpAStore:
		return 3, 0
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeSpecial:
		pops, pushes = in.NArgs, 1
		if in.Op != OpInvokeStatic {
			pops++
		}
		if void {
			pushes = 0
		}
		return pops, pushes
	}
	return 0, 0
}

// StackFault is an operand-stack fault in a method body: an instruction
// that underflows, a join reached at two depths, or a path that falls off
// the end of the code.
type StackFault struct {
	PC  int
	Msg string
}

// Depths walks m's control-flow graph from pc 0 at depth 0 and from each
// handler target at depth 1 (the thrown object), giving each instruction
// the depth at which the walk first reaches it; void[pc] says that the
// invoke at pc returns nothing.  It returns the deepest such depth and
// the first fault the walk meets, or nil; the walk stops at a fault, so
// only a faultless walk's deepest covers the whole body.  Targets outside
// the code are not followed.
func Depths(m *Method, void []bool) (deepest int, fault *StackFault) {
	code := m.Code
	depth := make([]int, len(code)) // entry depth plus one; 0 is unreached
	var work []int
	report := func(pc int, format string, a ...any) {
		if fault == nil {
			fault = &StackFault{PC: pc, Msg: fmt.Sprintf(format, a...)}
		}
	}
	enter := func(pc, d int) {
		switch {
		case pc < 0 || pc >= len(code):
		case depth[pc] == 0:
			depth[pc] = d + 1
			deepest = max(deepest, d)
			work = append(work, pc)
		case depth[pc] != d+1:
			report(pc, "inconsistent stack depth at join: %d vs %d", depth[pc]-1, d)
		}
	}
	enter(0, 0)
	for _, h := range m.Handlers {
		enter(h.Target, 1)
	}
	for len(work) > 0 && fault == nil {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := &code[pc]
		pops, pushes := effect(in, void[pc])
		d := depth[pc] - 1
		if d < pops {
			report(pc, "stack underflow: depth %d, need %d", d, pops)
			break
		}
		d += pushes - pops
		switch in.Op {
		case OpReturn, OpReturnValue, OpThrow:
			continue
		case OpJump:
			enter(int(in.A), d)
			continue
		case OpJumpIf, OpJumpIfNot:
			enter(int(in.A), d)
		}
		if pc+1 == len(code) {
			report(pc, "execution can fall off the end of the code")
			continue
		}
		enter(pc+1, d)
	}
	return deepest, fault
}
