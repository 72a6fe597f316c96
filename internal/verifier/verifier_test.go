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

// kindProgram is the system library plus T, whose fields, methods and
// static field the kind-rule bodies use, with f, a static method of
// return type ret and the given code, added to T.
func kindProgram(ret ir.Type, code ...ir.Instr) *ir.Program {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "i", Type: ir.Int}, {Name: "ss", Type: ir.String, Static: true}},
		Methods: []*ir.Method{
			{Name: "f", Return: ret, Static: true, Code: code},
			{Name: "takeInt", Params: []ir.Type{ir.Int}, Return: ir.Void, Static: true, Code: []ir.Instr{{Op: ir.OpReturn}}},
			{Name: "get", Return: ir.Int, Code: []ir.Instr{{Op: ir.OpConstInt}, {Op: ir.OpReturnValue}}},
		}})
	return p
}

// TestKindRules: each rule of the walk's kind check refuses a body that
// breaks it, and only it.
func TestKindRules(t *testing.T) {
	i := func(n int64) ir.Instr { return ir.Instr{Op: ir.OpConstInt, A: n} }
	s := ir.Instr{Op: ir.OpConstString, Str: "x"}
	b := func(v int64) ir.Instr { return ir.Instr{Op: ir.OpConstBool, A: v} }
	op := func(o ir.Op) ir.Instr { return ir.Instr{Op: o} }
	ret, pop := op(ir.OpReturn), op(ir.OpPop)
	intArray := ir.Instr{Op: ir.OpNewArray, TypeRef: &ir.Int}
	tRef := ir.Ref("T")
	for _, tc := range []struct {
		want string
		ret  ir.Type
		code []ir.Instr
	}{
		{"pc=0: load of local 0, unset or of another kind on some path", ir.Int, []ir.Instr{{Op: ir.OpLoad}, op(ir.OpReturnValue)}},
		{"pc=5: kind conflict at join: operand 0 is int on one path and string on another", ir.Void, []ir.Instr{
			b(1), {Op: ir.OpJumpIf, A: 4}, i(1), {Op: ir.OpJump, A: 5}, s, pop, ret}},
		{"pc=6: load of local 0, unset or of another kind on some path", ir.Void, []ir.Instr{
			i(1), {Op: ir.OpStore}, b(0), {Op: ir.OpJumpIf, A: 6}, s, {Op: ir.OpStore}, {Op: ir.OpLoad}, pop, ret}},
		{"pc=1: getfield of int, not ref", ir.Void, []ir.Instr{i(1), {Op: ir.OpGetField, Owner: "T", Member: "i"}, pop, ret}},
		{"pc=2: putfield of int, not ref", ir.Void, []ir.Instr{i(1), i(2), {Op: ir.OpPutField, Owner: "T", Member: "i"}, ret}},
		{"pc=2: putfield of string to int field T.i", ir.Void, []ir.Instr{
			{Op: ir.OpNew, Owner: "T"}, s, {Op: ir.OpPutField, Owner: "T", Member: "i"}, ret}},
		{"pc=1: putstatic of int to string field T.ss", ir.Void, []ir.Instr{i(1), {Op: ir.OpPutStatic, Owner: "T", Member: "ss"}, ret}},
		{"pc=1: argument 0 of T.takeInt is string, not int", ir.Void, []ir.Instr{
			s, {Op: ir.OpInvokeStatic, Owner: "T", Member: "takeInt", NArgs: 1}, ret}},
		{"pc=1: invokevirtual of int, not ref", ir.Void, []ir.Instr{i(1), {Op: ir.OpInvokeVirtual, Owner: "T", Member: "get"}, pop, ret}},
		{"pc=1: newarray of string, not int", ir.Void, []ir.Instr{s, intArray, pop, ret}},
		{"pc=3: aload of string, not int", ir.Void, []ir.Instr{i(1), intArray, s, op(ir.OpALoad), pop, ret}},
		{"pc=2: aload of int, not array", ir.Void, []ir.Instr{i(1), i(0), op(ir.OpALoad), pop, ret}},
		{"pc=4: astore of string to int[]", ir.Void, []ir.Instr{i(1), intArray, i(0), s, op(ir.OpAStore), ret}},
		{"pc=1: arraylen of int, not array", ir.Void, []ir.Instr{i(1), op(ir.OpArrayLen), pop, ret}},
		{"pc=2: add of string and int", ir.Void, []ir.Instr{s, i(1), op(ir.OpAdd), pop, ret}},
		{"pc=1: neg of string, not number", ir.Void, []ir.Instr{s, op(ir.OpNeg), pop, ret}},
		{"pc=1: not of int, not bool", ir.Void, []ir.Instr{i(1), op(ir.OpNot), pop, ret}},
		{"pc=2: concat of string and int", ir.Void, []ir.Instr{s, i(1), op(ir.OpConcat), pop, ret}},
		{"pc=2: cmp.lt of bool and bool", ir.Void, []ir.Instr{b(1), b(0), op(ir.OpCmpLt), pop, ret}},
		{"pc=1: jump.if of int, not bool", ir.Void, []ir.Instr{i(1), {Op: ir.OpJumpIf, A: 2}, ret}},
		{"pc=1: cast of string to int", ir.Void, []ir.Instr{s, {Op: ir.OpCast, TypeRef: &ir.Int}, pop, ret}},
		{"pc=1: instanceof of int, not ref", ir.Void, []ir.Instr{i(1), {Op: ir.OpInstanceOf, TypeRef: &tRef}, pop, ret}},
		{"pc=1: return of string from a method returning int", ir.Int, []ir.Instr{s, op(ir.OpReturnValue)}},
		{"pc=1: throw of int, not ref", ir.Void, []ir.Instr{i(1), op(ir.OpThrow)}},
	} {
		var got []string
		for _, err := range Verify(kindProgram(tc.ret, tc.code...)) {
			got = append(got, err.Error())
		}
		if want := "T.f " + tc.want; len(got) != 1 || got[0] != want {
			t.Errorf("errors %q, want [%q]", got, want)
		}
	}
}

// TestOverrideKinds: a method whose parameter or return kinds differ from
// the method it overrides is refused, and so is a class whose inherited
// method implements an interface's with other kinds.  A reference of
// another class is the same kind.
func TestOverrideKinds(t *testing.T) {
	m := func(name string, ret ir.Type, params ...ir.Type) *ir.Method {
		code := []ir.Instr{{Op: ir.OpConstNull}, {Op: ir.OpReturnValue}}
		switch ret.Kind {
		case ir.KindInt:
			code[0] = ir.Instr{Op: ir.OpConstInt}
		case ir.KindString:
			code[0] = ir.Instr{Op: ir.OpConstString}
		}
		return &ir.Method{Name: name, Params: params, Return: ret, Code: code}
	}
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "I", IsInterface: true, Abstract: true,
		Methods: []*ir.Method{{Name: "m", Return: ir.Int, Abstract: true}}})
	p.MustAdd(&ir.Class{Name: "B", Super: ir.ObjectClass, Methods: []*ir.Method{
		m("m", ir.String), m("get", ir.Int, ir.Int), m("self", ir.Ref("B")),
	}})
	p.MustAdd(&ir.Class{Name: "C", Super: "B", Interfaces: []string{"I"}})
	p.MustAdd(&ir.Class{Name: "S", Super: "B", Methods: []*ir.Method{
		m("get", ir.Int, ir.String), m("self", ir.Ref("S")),
	}})
	var got []string
	for _, err := range Verify(p) {
		got = append(got, err.Error())
	}
	want := []string{
		"C: implements I.m()I with B.m()S",
		"S.get: declares get(S)I but overrides B.get(I)I",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("errors %q, want %q", got, want)
	}
}
