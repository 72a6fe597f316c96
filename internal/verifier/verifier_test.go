package verifier

import (
	"strings"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/stdlib"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestSystemLibraryVerifies(t *testing.T) {
	if errs := Verify(stdlib.Program()); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("unexpected: %v", e)
		}
	}
}

func mustContainError(t *testing.T, errs []error, frag string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e.Error(), frag) {
			return
		}
	}
	t.Fatalf("no error containing %q in %v", frag, errs)
}

func baseProgram() *ir.Program { return stdlib.Program() }

func TestMissingReference(t *testing.T) {
	p := baseProgram()
	p.MustAdd(&ir.Class{
		Name:  "Orphan",
		Super: ir.ObjectClass,
		Fields: []ir.Field{
			{Name: "f", Type: ir.Ref("Ghost"), Access: ir.AccessPrivate},
		},
	})
	mustContainError(t, Verify(p), "missing from the program")
}

func TestHierarchyCycle(t *testing.T) {
	p := baseProgram()
	p.MustAdd(&ir.Class{Name: "A", Super: "B"})
	p.MustAdd(&ir.Class{Name: "B", Super: "A"})
	mustContainError(t, Verify(p), "superclass cycle")
}

func TestDuplicateMembers(t *testing.T) {
	p := baseProgram()
	p.MustAdd(&ir.Class{
		Name:  "Dup",
		Super: ir.ObjectClass,
		Fields: []ir.Field{
			{Name: "x", Type: ir.Int},
			{Name: "x", Type: ir.Int},
		},
	})
	mustContainError(t, Verify(p), "duplicate field")
}

func TestAbstractWithCode(t *testing.T) {
	p := baseProgram()
	p.MustAdd(&ir.Class{
		Name: "Bad", Super: ir.ObjectClass, Abstract: true,
		Methods: []*ir.Method{{
			Name: "m", Return: ir.Void, Abstract: true,
			Code: []ir.Instr{{Op: ir.OpReturn}},
		}},
	})
	mustContainError(t, Verify(p), "abstract method has code")
}

func TestUnimplementedInterface(t *testing.T) {
	p := baseProgram()
	p.MustAdd(&ir.Class{
		Name: "I", IsInterface: true, Abstract: true,
		Methods: []*ir.Method{{Name: "m", Return: ir.Void, Abstract: true}},
	})
	p.MustAdd(&ir.Class{
		Name: "C", Super: ir.ObjectClass, Interfaces: []string{"I"},
	})
	mustContainError(t, Verify(p), "does not implement I.m/0")
}

func method(code ...ir.Instr) *ir.Method {
	return &ir.Method{Name: "m", Return: ir.Void, Access: ir.AccessPublic, Code: code, MaxLocals: 4}
}

func classWith(m *ir.Method) *ir.Program {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass, Methods: []*ir.Method{m}})
	return p
}

func TestStackUnderflow(t *testing.T) {
	p := classWith(method(
		ir.Instr{Op: ir.OpPop},
		ir.Instr{Op: ir.OpReturn},
	))
	mustContainError(t, Verify(p), "underflow")
}

func TestJumpOutOfRange(t *testing.T) {
	p := classWith(method(
		ir.Instr{Op: ir.OpJump, A: 99},
		ir.Instr{Op: ir.OpReturn},
	))
	mustContainError(t, Verify(p), "out of range")
}

func TestFallOffEnd(t *testing.T) {
	p := classWith(method(
		ir.Instr{Op: ir.OpConstInt, A: 1},
		ir.Instr{Op: ir.OpPop},
	))
	mustContainError(t, Verify(p), "fall off the end")
}

func TestInconsistentJoinDepth(t *testing.T) {
	p := classWith(method(
		ir.Instr{Op: ir.OpConstBool, A: 1}, // 0: depth 0 -> 1
		ir.Instr{Op: ir.OpJumpIf, A: 3},    // 1: -> depth 0 both ways
		ir.Instr{Op: ir.OpConstInt, A: 5},  // 2: depth 0 -> 1
		ir.Instr{Op: ir.OpReturn},          // 3: joined at depth 0 and 1
	))
	mustContainError(t, Verify(p), "inconsistent stack depth")
}

func TestUnresolvedInvoke(t *testing.T) {
	p := classWith(method(
		ir.Instr{Op: ir.OpInvokeStatic, Owner: "T", Member: "nope", NArgs: 0},
		ir.Instr{Op: ir.OpReturn},
	))
	mustContainError(t, Verify(p), "unresolved method")
}

func TestValueReturnInVoidMethod(t *testing.T) {
	p := classWith(method(
		ir.Instr{Op: ir.OpConstInt, A: 1},
		ir.Instr{Op: ir.OpReturnValue},
	))
	mustContainError(t, Verify(p), "value return in void method")
}

func TestNewAbstract(t *testing.T) {
	p := baseProgram()
	p.MustAdd(&ir.Class{Name: "Abs", Super: ir.ObjectClass, Abstract: true})
	p.MustAdd(&ir.Class{
		Name: "T", Super: ir.ObjectClass,
		Methods: []*ir.Method{method(
			ir.Instr{Op: ir.OpNew, Owner: "Abs"},
			ir.Instr{Op: ir.OpPop},
			ir.Instr{Op: ir.OpReturn},
		)},
	})
	mustContainError(t, Verify(p), "non-instantiable")
}

func TestBadHandlerRange(t *testing.T) {
	m := method(ir.Instr{Op: ir.OpReturn})
	m.Handlers = []ir.TryHandler{{Start: 5, End: 2, Target: 0}}
	p := classWith(m)
	mustContainError(t, Verify(p), "handler range")
}
