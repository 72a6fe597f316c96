package transform

import (
	"fmt"

	"rafda/internal/ir"
)

// codeCtx describes the destination context of a rewritten method body,
// which determines local-slot shifting and how own-class static accesses
// are expressed.
type codeCtx struct {
	ownClass string // the original class the code came from
	// slotShift is added to every local slot: +1 when a static body
	// becomes an instance body (receiver occupies slot 0).
	slotShift int
	// ownStaticsViaLocal0: own-class static accesses use the receiver in
	// slot 0 (`this` in _C_Local methods, `that` in _C_Factory.clinit) as
	// the paper's Figures 4 and 5 show, instead of going through the
	// factory forwarders.
	ownStaticsViaLocal0 bool
	// skip is how many leading pcs to drop (the implicit sys.Object
	// super-constructor call when a constructor body moves into a
	// factory init method; see superCallSkip).
	skip int
}

// rewriteCode rewrites one method body for the transformed world on rw
// (ir.Rewriter remaps jump targets and exception-handler ranges).
func (t *nameTable) rewriteCode(rw *ir.Rewriter, ctx codeCtx, code []ir.Instr, handlers []ir.TryHandler) ([]ir.Instr, []ir.TryHandler, error) {
	out, outH, err := rw.Rewrite(code, handlers, func(out []ir.Instr, pc int, in ir.Instr) ([]ir.Instr, error) {
		if pc < ctx.skip {
			return out, nil
		}
		var n *familyNames
		switch in.Op {
		case ir.OpGetField, ir.OpPutField, ir.OpGetStatic, ir.OpPutStatic,
			ir.OpInvokeVirtual, ir.OpInvokeInterface, ir.OpInvokeStatic, ir.OpInvokeSpecial, ir.OpNew:
			if n = t.of(in.Owner); n == nil {
				return append(out, in), nil
			}
		}
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			in.A += int64(ctx.slotShift)
			out = append(out, in)

		case ir.OpGetField:
			out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: n.name[slotOInt], Member: t.getter(in.Member)})

		case ir.OpPutField:
			out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: n.name[slotOInt], Member: t.setter(in.Member), NArgs: 1})

		case ir.OpGetStatic:
			if ctx.ownStaticsViaLocal0 && in.Owner == ctx.ownClass {
				out = append(out,
					ir.Instr{Op: ir.OpLoad, A: 0},
					ir.Instr{Op: ir.OpInvokeInterface, Owner: n.name[slotCInt], Member: t.getter(in.Member)})
			} else {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: n.name[slotCFactory], Member: t.getter(in.Member)})
			}

		case ir.OpPutStatic:
			if ctx.ownStaticsViaLocal0 && in.Owner == ctx.ownClass {
				out = append(out,
					ir.Instr{Op: ir.OpLoad, A: 0},
					ir.Instr{Op: ir.OpSwap},
					ir.Instr{Op: ir.OpInvokeInterface, Owner: n.name[slotCInt], Member: t.setter(in.Member), NArgs: 1})
			} else {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: n.name[slotCFactory], Member: t.setter(in.Member), NArgs: 1})
			}

		case ir.OpInvokeVirtual, ir.OpInvokeInterface:
			out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: n.name[slotOInt], Member: in.Member, NArgs: in.NArgs})

		case ir.OpInvokeStatic:
			out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: n.name[slotCFactory], Member: in.Member, NArgs: in.NArgs})

		case ir.OpInvokeSpecial:
			if in.Member != ir.ConstructorName {
				return nil, fmt.Errorf("invokespecial of non-constructor %s.%s in transformable code", in.Owner, in.Member)
			}
			// NEW A; DUP; args; INVOKESPECIAL A.<init>/n  becomes
			// make(); DUP; args; INVOKESTATIC A_O_Factory.init/n+1 —
			// init takes the object as an extra leading parameter.
			out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: n.name[slotOFactory], Member: InitMethod, NArgs: in.NArgs + 1})

		case ir.OpNew:
			out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: n.name[slotOFactory], Member: MakeMethod})

		case ir.OpCast, ir.OpInstanceOf, ir.OpNewArray, ir.OpConstNull:
			if in.TypeRef != nil {
				if mt := t.mapType(*in.TypeRef); mt != *in.TypeRef {
					in.TypeRef = &mt
				}
			}
			out = append(out, in)

		default:
			out = append(out, in)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ctx.ownClass, err)
	}
	return out, outH, nil
}

// superCallSkip returns how many leading pcs of a constructor body its
// factory init method drops: the two of a leading `LOAD 0; INVOKESPECIAL
// <non-transformable-super>.<init>/0` (the interface-typed `that` cannot
// meaningfully run a foreign constructor, and sys.Object's is a no-op),
// else none.
func (t *nameTable) superCallSkip(code []ir.Instr) int {
	if len(code) >= 2 &&
		code[0].Op == ir.OpLoad && code[0].A == 0 &&
		code[1].Op == ir.OpInvokeSpecial &&
		code[1].Member == ir.ConstructorName &&
		code[1].NArgs == 0 &&
		t.of(code[1].Owner) == nil {
		return 2
	}
	return 0
}
