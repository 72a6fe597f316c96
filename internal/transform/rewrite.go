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
	// skip contains old pcs to drop entirely (e.g. the implicit
	// sys.Object super-constructor call when a constructor body moves
	// into a factory init method).
	skip map[int]bool
}

// mapType rewrites reference types of transformable classes to their
// extracted instance interfaces (§2.1: "affected type signatures ... must
// be adapted to use the interfaces").
func mapType(a *Analysis, t ir.Type) ir.Type {
	switch t.Kind {
	case ir.KindRef:
		if a.Transformable(t.Name) {
			return ir.Ref(OInt(t.Name))
		}
		return t
	case ir.KindArray:
		return ir.ArrayOf(mapType(a, *t.Elem))
	default:
		return t
	}
}

func mapTypes(a *Analysis, ts []ir.Type) []ir.Type {
	out := make([]ir.Type, len(ts))
	for i, t := range ts {
		out[i] = mapType(a, t)
	}
	return out
}

// rewriteCode rewrites one method body for the transformed world
// (ir.Rewrite remaps jump targets and exception-handler ranges).
func rewriteCode(a *Analysis, ctx codeCtx, code []ir.Instr, handlers []ir.TryHandler) ([]ir.Instr, []ir.TryHandler, error) {
	out, outH, err := ir.Rewrite(code, handlers, func(out []ir.Instr, pc int, in ir.Instr) ([]ir.Instr, error) {
		if ctx.skip[pc] {
			return out, nil
		}
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			in.A += int64(ctx.slotShift)
			out = append(out, in)

		case ir.OpGetField:
			if a.Transformable(in.Owner) {
				out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: OInt(in.Owner), Member: Getter(in.Member)})
			} else {
				out = append(out, in)
			}

		case ir.OpPutField:
			if a.Transformable(in.Owner) {
				out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: OInt(in.Owner), Member: Setter(in.Member), NArgs: 1})
			} else {
				out = append(out, in)
			}

		case ir.OpGetStatic:
			if !a.Transformable(in.Owner) {
				out = append(out, in)
				break
			}
			if ctx.ownStaticsViaLocal0 && in.Owner == ctx.ownClass {
				out = append(out, ir.Instr{Op: ir.OpLoad, A: 0})
				out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: CInt(in.Owner), Member: Getter(in.Member)})
			} else {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: CFactory(in.Owner), Member: Getter(in.Member)})
			}

		case ir.OpPutStatic:
			if !a.Transformable(in.Owner) {
				out = append(out, in)
				break
			}
			if ctx.ownStaticsViaLocal0 && in.Owner == ctx.ownClass {
				out = append(out, ir.Instr{Op: ir.OpLoad, A: 0})
				out = append(out, ir.Instr{Op: ir.OpSwap})
				out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: CInt(in.Owner), Member: Setter(in.Member), NArgs: 1})
			} else {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: CFactory(in.Owner), Member: Setter(in.Member), NArgs: 1})
			}

		case ir.OpInvokeVirtual, ir.OpInvokeInterface:
			if a.Transformable(in.Owner) {
				out = append(out, ir.Instr{Op: ir.OpInvokeInterface, Owner: OInt(in.Owner), Member: in.Member, NArgs: in.NArgs})
			} else {
				out = append(out, in)
			}

		case ir.OpInvokeStatic:
			if a.Transformable(in.Owner) {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: CFactory(in.Owner), Member: in.Member, NArgs: in.NArgs})
			} else {
				out = append(out, in)
			}

		case ir.OpInvokeSpecial:
			if !a.Transformable(in.Owner) {
				out = append(out, in)
				break
			}
			if in.Member != ir.ConstructorName {
				return nil, fmt.Errorf("invokespecial of non-constructor %s.%s in transformable code", in.Owner, in.Member)
			}
			// NEW A; DUP; args; INVOKESPECIAL A.<init>/n  becomes
			// make(); DUP; args; INVOKESTATIC A_O_Factory.init/n+1 —
			// init takes the object as an extra leading parameter.
			out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: OFactory(in.Owner), Member: InitMethod, NArgs: in.NArgs + 1})

		case ir.OpNew:
			if a.Transformable(in.Owner) {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: OFactory(in.Owner), Member: MakeMethod})
			} else {
				out = append(out, in)
			}

		case ir.OpCast, ir.OpInstanceOf, ir.OpNewArray, ir.OpConstNull:
			if in.TypeRef != nil {
				mt := mapType(a, *in.TypeRef)
				in.TypeRef = &mt
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

// objectSuperCallSkips finds the leading `LOAD 0; INVOKESPECIAL
// <non-transformable-super>.<init>/0` pattern of a constructor so that
// the factory init method can drop it (the interface-typed `that` cannot
// meaningfully run a foreign constructor, and sys.Object's is a no-op).
func objectSuperCallSkips(a *Analysis, code []ir.Instr) map[int]bool {
	if len(code) >= 2 &&
		code[0].Op == ir.OpLoad && code[0].A == 0 &&
		code[1].Op == ir.OpInvokeSpecial &&
		code[1].Member == ir.ConstructorName &&
		code[1].NArgs == 0 &&
		!a.Transformable(code[1].Owner) {
		return map[int]bool{0: true, 1: true}
	}
	return nil
}
