package vm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

// buildClass makes a one-class program around the given methods.
func buildClass(methods ...*ir.Method) *ir.Program {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass, Methods: methods})
	return p
}

func staticMethod(name string, ret ir.Type, params []ir.Type, code []ir.Instr) *ir.Method {
	return &ir.Method{
		Name: name, Params: params, Return: ret, Static: true,
		Access: ir.AccessPublic, Code: code, MaxLocals: len(params) + 2,
	}
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		op   ir.Op
		a, b int64
		want int64
	}{
		{ir.OpAdd, 40, 2, 42},
		{ir.OpSub, 40, 2, 38},
		{ir.OpMul, 6, 7, 42},
		{ir.OpDiv, 85, 2, 42},
		{ir.OpRem, 85, 43, 42},
	}
	for _, tc := range cases {
		prog := buildClass(staticMethod("f", ir.Int, nil, []ir.Instr{
			{Op: ir.OpConstInt, A: tc.a},
			{Op: ir.OpConstInt, A: tc.b},
			{Op: tc.op},
			{Op: ir.OpReturnValue},
		}))
		v := MustNew(prog)
		got, err := v.Invoke("T", "f", Value{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if got.I != tc.want {
			t.Errorf("%v: got %d want %d", tc.op, got.I, tc.want)
		}
	}
}

// TestIntArithmeticProperty cross-checks interpreted addition and
// subtraction against Go semantics with random operands.
func TestIntArithmeticProperty(t *testing.T) {
	prog := buildClass(
		staticMethod("add", ir.Int, []ir.Type{ir.Int, ir.Int}, []ir.Instr{
			{Op: ir.OpLoad, A: 0}, {Op: ir.OpLoad, A: 1}, {Op: ir.OpAdd}, {Op: ir.OpReturnValue},
		}),
		staticMethod("mul", ir.Int, []ir.Type{ir.Int, ir.Int}, []ir.Instr{
			{Op: ir.OpLoad, A: 0}, {Op: ir.OpLoad, A: 1}, {Op: ir.OpMul}, {Op: ir.OpReturnValue},
		}),
	)
	v := MustNew(prog)
	f := func(a, b int64) bool {
		s, err := v.Invoke("T", "add", Value{}, []Value{IntV(a), IntV(b)})
		if err != nil || s.I != a+b {
			return false
		}
		m, err := v.Invoke("T", "mul", Value{}, []Value{IntV(a), IntV(b)})
		return err == nil && m.I == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDivisionByZeroThrows(t *testing.T) {
	prog := buildClass(staticMethod("f", ir.Int, nil, []ir.Instr{
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpDiv},
		{Op: ir.OpReturnValue},
	}))
	v := MustNew(prog)
	_, err := v.Invoke("T", "f", Value{}, nil)
	var unc *UncaughtError
	if !errors.As(err, &unc) || unc.Class != stdlib.ArithmeticClass {
		t.Fatalf("want uncaught %s, got %v", stdlib.ArithmeticClass, err)
	}
}

func TestStepLimit(t *testing.T) {
	prog := buildClass(staticMethod("spin", ir.Void, nil, []ir.Instr{
		{Op: ir.OpJump, A: 0},
	}))
	v := MustNew(prog, WithMaxSteps(1000))
	_, err := v.Invoke("T", "spin", Value{}, nil)
	var fault *FaultError
	if !errors.As(err, &fault) || !strings.Contains(fault.Msg, "step limit") {
		t.Fatalf("want step-limit fault, got %v", err)
	}
}

func TestDepthLimit(t *testing.T) {
	prog := buildClass(staticMethod("rec", ir.Void, nil, []ir.Instr{
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "rec"},
		{Op: ir.OpReturn},
	}))
	v := MustNew(prog, WithMaxDepth(50))
	_, err := v.Invoke("T", "rec", Value{}, nil)
	var fault *FaultError
	if !errors.As(err, &fault) || !strings.Contains(fault.Msg, "depth") {
		t.Fatalf("want depth fault, got %v", err)
	}
}

func TestStaticInitRunsOnce(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "K", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "n", Type: ir.Int, Static: true}},
		Methods: []*ir.Method{
			{Name: ir.StaticInitName, Return: ir.Void, Static: true, MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpGetStatic, Owner: "K", Member: "n"},
					{Op: ir.OpConstInt, A: 1},
					{Op: ir.OpAdd},
					{Op: ir.OpPutStatic, Owner: "K", Member: "n"},
					{Op: ir.OpReturn},
				}},
			staticMethod("get", ir.Int, nil, []ir.Instr{
				{Op: ir.OpGetStatic, Owner: "K", Member: "n"},
				{Op: ir.OpReturnValue},
			}),
		},
	})
	v := MustNew(p)
	for i := 0; i < 3; i++ {
		got, err := v.Invoke("K", "get", Value{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.I != 1 {
			t.Fatalf("clinit ran %d times", got.I)
		}
	}
}

func TestGetSetStaticAPI(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "K", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "n", Type: ir.Int, Static: true}},
	})
	v := MustNew(p)
	if err := v.SetStatic("K", "n", IntV(9)); err != nil {
		t.Fatal(err)
	}
	got, err := v.GetStatic("K", "n")
	if err != nil || got.I != 9 {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := v.GetStatic("K", "missing"); err == nil {
		t.Fatal("missing static accepted")
	}
}

func TestExceptionHandlerDispatch(t *testing.T) {
	// try { throw Arithmetic } catch RuntimeException -> 1, catch-all -> 2
	prog := buildClass(&ir.Method{
		Name: "f", Return: ir.Int, Static: true, Access: ir.AccessPublic, MaxLocals: 2,
		Handlers: []ir.TryHandler{
			{Start: 0, End: 5, Target: 6, CatchClass: stdlib.RuntimeExceptionClass},
			{Start: 0, End: 5, Target: 9},
		},
		Code: []ir.Instr{
			{Op: ir.OpNew, Owner: stdlib.ArithmeticClass}, // 0
			{Op: ir.OpDup},                   // 1
			{Op: ir.OpConstString, Str: "x"}, // 2
			{Op: ir.OpInvokeSpecial, Owner: stdlib.ArithmeticClass, Member: ir.ConstructorName, NArgs: 1}, // 3
			{Op: ir.OpThrow},          // 4
			{Op: ir.OpReturnValue},    // 5 (unreachable)
			{Op: ir.OpPop},            // 6: RuntimeException handler
			{Op: ir.OpConstInt, A: 1}, // 7
			{Op: ir.OpReturnValue},    // 8
			{Op: ir.OpPop},            // 9: catch-all
			{Op: ir.OpConstInt, A: 2}, // 10
			{Op: ir.OpReturnValue},    // 11
		},
	})
	v := MustNew(prog)
	got, err := v.Invoke("T", "f", Value{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 1 {
		t.Fatalf("handler order wrong: got %d", got.I)
	}
}

func TestNullChecks(t *testing.T) {
	prog := stdlib.Program()
	prog.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "whatever", Type: ir.Int}},
		Methods: []*ir.Method{staticMethod("f", ir.Int, nil, []ir.Instr{
			{Op: ir.OpConstNull, TypeRef: &ir.Type{Kind: ir.KindRef, Name: "T"}},
			{Op: ir.OpGetField, Owner: "T", Member: "whatever"},
			{Op: ir.OpReturnValue},
		})}})
	v := MustNew(prog)
	_, err := v.Invoke("T", "f", Value{}, nil)
	var unc *UncaughtError
	if !errors.As(err, &unc) || unc.Class != stdlib.NullPointerClass {
		t.Fatalf("want NPE, got %v", err)
	}
}

func TestMixedNullComparison(t *testing.T) {
	// Comparing a null object ref with a null array ref must not fault.
	prog := buildClass(staticMethod("f", ir.Bool, []ir.Type{ir.ArrayOf(ir.Int)}, []ir.Instr{
		{Op: ir.OpLoad, A: 0},
		{Op: ir.OpConstNull, TypeRef: &ir.Type{Kind: ir.KindRef, Name: ir.ObjectClass}},
		{Op: ir.OpCmpEq},
		{Op: ir.OpReturnValue},
	}))
	v := MustNew(prog)
	got, err := v.Invoke("T", "f", Value{}, []Value{{K: ir.KindArray}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Bool() {
		t.Fatal("null array == null ref should be true")
	}
	got, err = v.Invoke("T", "f", Value{}, []Value{ArrayV(NewArray(ir.Int, 1))})
	if err != nil || got.Bool() {
		t.Fatalf("non-null array == null: %v %v", got, err)
	}
}

func TestNativeRegistration(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "N", Super: ir.ObjectClass,
		Methods: []*ir.Method{
			{Name: "twice", Params: []ir.Type{ir.Int}, Return: ir.Int,
				Static: true, Native: true, Access: ir.AccessPublic},
			{Name: "other", Return: ir.Int, Static: true, Native: true, Access: ir.AccessPublic},
		},
	})
	v := MustNew(p)
	v.RegisterNative("N", "twice", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(args[0].I * 2), nil, nil
	})
	got, err := v.Invoke("N", "twice", Value{}, []Value{IntV(21)})
	if err != nil || got.I != 42 {
		t.Fatalf("native: %v %v", got, err)
	}
	// Unbound native faults.
	if _, err := v.Invoke("N", "other", Value{}, nil); err == nil {
		t.Fatal("unbound native accepted")
	}
	// Class-level fallback.
	v.RegisterClassNative("N", func(env *Env, method string, _ Value, _ []Value) (Value, *Thrown, error) {
		return IntV(7), nil, nil
	})
	if got, err := v.Invoke("N", "other", Value{}, nil); err != nil || got.I != 7 {
		t.Fatalf("class native: %v %v", got, err)
	}
	// A native keeps the binding of its first successful call.
	v.RegisterNative("N", "twice", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(0), nil, nil
	})
	if got, err := v.Invoke("N", "twice", Value{}, []Value{IntV(21)}); err != nil || got.I != 42 {
		t.Fatalf("rebound native: %v %v, want the first binding's 42", got, err)
	}
}

// TestNativeRegistrationLinear: a registration writes one table entry.
// A node registers a factory native per transformed class and a class
// native per proxy class, so a registration that copied the table made
// booting over a large program quadratic.
func TestNativeRegistrationLinear(t *testing.T) {
	const n = 4096
	owners := make([]string, n)
	for i := range owners {
		owners[i] = fmt.Sprintf("C%d", i)
	}
	exact := func(*Env, Value, []Value) (Value, *Thrown, error) { return Value{}, nil, nil }
	class := func(*Env, string, Value, []Value) (Value, *Thrown, error) { return Value{}, nil, nil }
	v := MustNew(nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, o := range owners {
		v.RegisterNative(o, "make", 0, exact)
	}
	for _, o := range owners {
		v.RegisterClassNative(o, class)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / (2 * n)
	t.Logf("%d bytes allocated per registration", per)
	if per > 4<<10 {
		t.Fatalf("%d bytes allocated per registration, want at most 4 KiB", per)
	}
}

func TestConcurrentInvokes(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "K", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "n", Type: ir.Int, Static: true}},
		Methods: []*ir.Method{
			staticMethod("inc", ir.Int, nil, []ir.Instr{
				{Op: ir.OpGetStatic, Owner: "K", Member: "n"},
				{Op: ir.OpConstInt, A: 1},
				{Op: ir.OpAdd},
				{Op: ir.OpPutStatic, Owner: "K", Member: "n"},
				{Op: ir.OpGetStatic, Owner: "K", Member: "n"},
				{Op: ir.OpReturnValue},
			}),
		},
	})
	v := MustNew(p)
	const goroutines = 8
	const per = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := v.Invoke("K", "inc", Value{}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := v.GetStatic("K", "n")
	if err != nil {
		t.Fatal(err)
	}
	if got.I != goroutines*per {
		t.Fatalf("lost updates: %d want %d", got.I, goroutines*per)
	}
}

func TestMorphRedirectsReferences(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "A", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "x", Type: ir.Int}},
		Methods: []*ir.Method{{Name: "tag", Return: ir.Int, Access: ir.AccessPublic, MaxLocals: 1,
			Code: []ir.Instr{{Op: ir.OpConstInt, A: 1}, {Op: ir.OpReturnValue}}}}})
	p.MustAdd(&ir.Class{Name: "B", Super: ir.ObjectClass,
		Methods: []*ir.Method{{Name: "tag", Return: ir.Int, Access: ir.AccessPublic, MaxLocals: 1,
			Code: []ir.Instr{{Op: ir.OpConstInt, A: 2}, {Op: ir.OpReturnValue}}}}})
	v := MustNew(p)
	obj, err := v.NewObject("A")
	if err != nil {
		t.Fatal(err)
	}
	ref1, ref2 := RefV(obj), RefV(obj) // two references to one object
	if got, _ := v.Invoke("A", "tag", ref1, nil); got.I != 1 {
		t.Fatal("pre-morph tag")
	}
	if err := v.Morph(obj, "B", map[string]Value{}); err != nil {
		t.Fatal(err)
	}
	// Both references observe the new class (dynamic dispatch).
	for _, r := range []Value{ref1, ref2} {
		got, err := v.Invoke(r.O.ClassName(), "tag", r, nil)
		if err != nil || got.I != 2 {
			t.Fatalf("post-morph: %v %v", got, err)
		}
	}
	if err := v.Morph(obj, "NoSuch", nil); err == nil {
		t.Fatal("morph to unknown class accepted")
	}
}

func TestSystemNatives(t *testing.T) {
	var out bytes.Buffer
	v := MustNew(stdlib.Program(), WithOutput(&out),
		WithClock(func() time.Time { return time.Unix(12, 34e6) }))
	check := func(class, method string, args []Value, want string) {
		t.Helper()
		got, err := v.Invoke(class, method, Value{}, args)
		if err != nil {
			t.Fatalf("%s.%s: %v", class, method, err)
		}
		if got.String() != want {
			t.Errorf("%s.%s = %q want %q", class, method, got.String(), want)
		}
	}
	check(stdlib.StringsClass, "ofInt", []Value{IntV(-7)}, "-7")
	check(stdlib.StringsClass, "parseInt", []Value{StringV(" 42 ")}, "42")
	check(stdlib.StringsClass, "length", []Value{StringV("abcd")}, "4")
	check(stdlib.StringsClass, "substring", []Value{StringV("hello"), IntV(1), IntV(3)}, "el")
	check(stdlib.StringsClass, "repeat", []Value{StringV("ab"), IntV(3)}, "ababab")
	check(ir.MathClass, "abs", []Value{IntV(-5)}, "5")
	check(ir.MathClass, "min", []Value{IntV(3), IntV(9)}, "3")
	check(ir.MathClass, "max", []Value{IntV(3), IntV(9)}, "9")
	check(stdlib.ClockClass, "millis", nil, "12034")

	if _, err := v.Invoke(ir.SystemClass, "println", Value{}, []Value{StringV("hey")}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "hey\n" {
		t.Fatalf("println wrote %q", out.String())
	}
	// Bad substring bounds throw, not fault.
	_, err := v.Invoke(stdlib.StringsClass, "substring", Value{}, []Value{StringV("x"), IntV(0), IntV(9)})
	var unc *UncaughtError
	if !errors.As(err, &unc) || unc.Class != stdlib.IndexBoundsClass {
		t.Fatalf("substring bounds: %v", err)
	}
}

func TestValueStringForms(t *testing.T) {
	cases := map[string]Value{
		"void": {},
		"true": BoolV(true),
		"42":   IntV(42),
		"1.5":  FloatV(1.5),
		"hi":   StringV("hi"),
		"null": NullV(),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v prints %q want %q", v, got, want)
		}
	}
}

func TestZeroValues(t *testing.T) {
	for _, tc := range []struct {
		t    ir.Type
		kind ir.Kind
	}{
		{ir.Int, ir.KindInt},
		{ir.Bool, ir.KindBool},
		{ir.Float, ir.KindFloat},
		{ir.String, ir.KindString},
		{ir.Ref("X"), ir.KindRef},
		{ir.ArrayOf(ir.Int), ir.KindArray},
	} {
		z := ZeroValue(tc.t)
		if z.K != tc.kind {
			t.Errorf("zero of %v has kind %v", tc.t, z.K)
		}
		if tc.kind == ir.KindRef && !z.IsNullRef() {
			t.Error("ref zero not null")
		}
	}
}
