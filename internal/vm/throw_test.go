package vm

import (
	"fmt"
	"strings"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

func refType(name string) *ir.Type {
	t := ir.Ref(name)
	return &t
}

func arrayType(elem ir.Type) *ir.Type {
	t := ir.ArrayOf(elem)
	return &t
}

// throwSiteCases are one body per interpreter throw site; the body's last
// instruction is the site.
var throwSiteCases = []struct {
	name string
	body []ir.Instr
}{
	{"getfield", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: refType("T")},
		{Op: ir.OpGetField, Owner: "T", Member: "x"},
	}},
	{"putfield", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: refType("T")},
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpPutField, Owner: "T", Member: "x"},
	}},
	{"invoke", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: refType("T")},
		{Op: ir.OpInvokeVirtual, Owner: "T", Member: "m"},
	}},
	{"aload-null", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: arrayType(ir.Int)},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpALoad},
	}},
	{"astore-null", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: arrayType(ir.Int)},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpAStore},
	}},
	{"arraylen", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: arrayType(ir.Int)},
		{Op: ir.OpArrayLen},
	}},
	{"throw-null", []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: refType(ir.ThrowableClass)},
		{Op: ir.OpThrow},
	}},
	{"aload-bounds", []ir.Instr{
		{Op: ir.OpConstInt, A: 2},
		{Op: ir.OpNewArray, TypeRef: &ir.Int},
		{Op: ir.OpConstInt, A: 5},
		{Op: ir.OpALoad},
	}},
	{"astore-bounds", []ir.Instr{
		{Op: ir.OpConstInt, A: 2},
		{Op: ir.OpNewArray, TypeRef: &ir.Int},
		{Op: ir.OpConstInt, A: -1},
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpAStore},
	}},
	{"newarray", []ir.Instr{
		{Op: ir.OpConstInt, A: -3},
		{Op: ir.OpNewArray, TypeRef: &ir.Int},
	}},
	{"div", []ir.Instr{
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpDiv},
	}},
	{"rem", []ir.Instr{
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpRem},
	}},
	{"cast", []ir.Instr{
		{Op: ir.OpNew, Owner: "T"},
		{Op: ir.OpCast, TypeRef: refType(stdlib.RuntimeExceptionClass)},
	}},
	{"clinit-new", []ir.Instr{
		{Op: ir.OpNew, Owner: "B"},
	}},
	{"clinit-getstatic", []ir.Instr{
		{Op: ir.OpGetStatic, Owner: "B", Member: "s"},
	}},
	{"callee", []ir.Instr{
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "boom"},
	}},
}

// throwSiteProgram builds T, whose own(n) runs a case body under its own
// handlers and caller() catches what callee() — the same body without a
// matching handler — throws, plus B, whose static initialiser divides by
// zero.  A wrong handler answers null; the right one, the exception.
func throwSiteProgram(body []ir.Instr) *ir.Program {
	site := len(body) - 1
	exc := ir.Ref(ir.ThrowableClass)
	tail := []ir.Instr{
		{Op: ir.OpConstNull, TypeRef: refType(ir.ThrowableClass)}, // unreachable
		{Op: ir.OpReturnValue},
		{Op: ir.OpPop}, // wrong handler
		{Op: ir.OpConstNull, TypeRef: refType(ir.ThrowableClass)},
		{Op: ir.OpReturnValue},
		{Op: ir.OpReturnValue}, // right handler
	}
	code := append(append([]ir.Instr{}, body...), tail...)
	wrong, right := len(body)+2, len(body)+5
	remote := stdlib.RemoteExceptionClass
	own := &ir.Method{
		Name: "own", Return: exc, Static: true, Access: ir.AccessPublic, MaxLocals: 1, Code: code,
		Handlers: []ir.TryHandler{
			{Start: site, End: site + 1, Target: wrong, CatchClass: remote},
			{Start: site + 1, End: site + 2, Target: wrong},
			{Start: site, End: site + 1, Target: right},
			{Start: site, End: site + 1, Target: wrong},
		},
	}
	if site > 0 {
		// The range before the site: it is empty when the site is pc
		// 0, and the verifier refuses an empty range.
		own.Handlers = append([]ir.TryHandler{{Start: 0, End: site, Target: wrong}}, own.Handlers...)
	}
	callee := &ir.Method{
		Name: "callee", Return: exc, Static: true, Access: ir.AccessPublic, MaxLocals: 1, Code: code,
		Handlers: []ir.TryHandler{{Start: 0, End: site + 1, Target: wrong, CatchClass: remote}},
	}
	caller := staticMethod("caller", exc, nil, []ir.Instr{
		{Op: ir.OpConstInt, A: 9},
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "callee"},
		{Op: ir.OpReturnValue},
		{Op: ir.OpPop}, // 3: wrong handler
		{Op: ir.OpConstNull, TypeRef: refType(ir.ThrowableClass)},
		{Op: ir.OpReturnValue},
		{Op: ir.OpReturnValue}, // 6: right handler
	})
	caller.Handlers = []ir.TryHandler{
		{Start: 0, End: 1, Target: 3},
		{Start: 1, End: 2, Target: 3, CatchClass: remote},
		{Start: 1, End: 2, Target: 6, CatchClass: ir.ThrowableClass},
	}
	boom := staticMethod("boom", ir.Void, nil, []ir.Instr{
		{Op: ir.OpNew, Owner: stdlib.ExceptionClass},
		{Op: ir.OpDup},
		{Op: ir.OpConstString, Str: "boom"},
		{Op: ir.OpInvokeSpecial, Owner: stdlib.ExceptionClass, Member: ir.ConstructorName, NArgs: 1},
		{Op: ir.OpThrow},
	})
	m := &ir.Method{Name: "m", Return: ir.Void, Access: ir.AccessPublic, MaxLocals: 1,
		Code: []ir.Instr{{Op: ir.OpReturn}}}
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass,
		Fields:  []ir.Field{{Name: "x", Type: ir.Int}},
		Methods: []*ir.Method{own, callee, caller, boom, m}})
	p.MustAdd(&ir.Class{Name: "B", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "s", Type: ir.Int, Static: true}},
		Methods: []*ir.Method{staticMethod(ir.StaticInitName, ir.Void, nil, []ir.Instr{
			{Op: ir.OpConstInt, A: 1},
			{Op: ir.OpConstInt, A: 0},
			{Op: ir.OpDiv},
			{Op: ir.OpPutStatic, Owner: "B", Member: "s"},
			{Op: ir.OpReturn},
		})}})
	return p
}

// throwSiteGolden is what each throw site delivers to the right handler,
// in the throwing frame and in its caller.
const throwSiteGolden = `getfield own: sys.NullPointerException: read of field x on null
getfield caller: sys.NullPointerException: read of field x on null
putfield own: sys.NullPointerException: write of field x on null
putfield caller: sys.NullPointerException: write of field x on null
invoke own: sys.NullPointerException: invoke of T.m on null
invoke caller: sys.NullPointerException: invoke of T.m on null
aload-null own: sys.NullPointerException: index of null array
aload-null caller: sys.NullPointerException: index of null array
astore-null own: sys.NullPointerException: store to null array
astore-null caller: sys.NullPointerException: store to null array
arraylen own: sys.NullPointerException: length of null array
arraylen caller: sys.NullPointerException: length of null array
throw-null own: sys.NullPointerException: throw of null
throw-null caller: sys.NullPointerException: throw of null
aload-bounds own: sys.IndexOutOfBoundsException: index 5 out of range 2
aload-bounds caller: sys.IndexOutOfBoundsException: index 5 out of range 2
astore-bounds own: sys.IndexOutOfBoundsException: index -1 out of range 2
astore-bounds caller: sys.IndexOutOfBoundsException: index -1 out of range 2
newarray own: sys.IndexOutOfBoundsException: array length -3
newarray caller: sys.IndexOutOfBoundsException: array length -3
div own: sys.ArithmeticException: division by zero
div caller: sys.ArithmeticException: division by zero
rem own: sys.ArithmeticException: remainder by zero
rem caller: sys.ArithmeticException: remainder by zero
cast own: sys.ClassCastException: T is not a sys.RuntimeException
cast caller: sys.ClassCastException: T is not a sys.RuntimeException
clinit-new own: sys.ArithmeticException: division by zero
clinit-new caller: sys.ArithmeticException: division by zero
clinit-getstatic own: sys.ArithmeticException: division by zero
clinit-getstatic caller: sys.ArithmeticException: division by zero
callee own: sys.Exception: boom
callee caller: sys.Exception: boom
`

// TestThrowSitesReachHandlers: each interpreter throw site delivers its
// exception to the first handler, in table order, whose range holds the
// site's pc and whose class matches — in the frame that threw, and in a
// calling frame when the throwing frame has none.
func TestThrowSitesReachHandlers(t *testing.T) {
	var out strings.Builder
	for _, tc := range throwSiteCases {
		for _, entry := range []string{"own", "caller"} {
			// A fresh VM per run: a failed static initialiser runs once.
			v := MustNew(throwSiteProgram(tc.body))
			got, err := v.Invoke("T", entry, Value{}, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, entry, err)
			}
			if got.K != ir.KindRef || got.O == nil {
				fmt.Fprintf(&out, "%s %s: %v\n", tc.name, entry, got)
				continue
			}
			fmt.Fprintf(&out, "%s %s: %s: %s\n", tc.name, entry, got.O.ClassName(), got.O.Get("message").S)
		}
	}
	if out.String() != throwSiteGolden {
		t.Fatalf("handlers saw\n%s\nwant\n%s", out.String(), throwSiteGolden)
	}
}

// resultProgram is T with the callers the result-placement pins run.
func resultProgram() *ir.Program {
	// T's instance seven() answers 0; S, a T, hides it with a static
	// seven() that answers 7.
	seven := &ir.Method{Name: "seven", Return: ir.Int, Access: ir.AccessPublic, MaxLocals: 1, Code: []ir.Instr{
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpReturnValue},
	}}
	hiding := staticMethod("seven", ir.Int, nil, []ir.Instr{
		{Op: ir.OpConstInt, A: 7},
		{Op: ir.OpReturnValue},
	})
	// 100 + seven(), the static seven reached through an instance invoke
	// on an S, at the caller's deepest stack: the static callee takes no
	// receiver, and its result lands where the receiver was.
	viaInstance := staticMethod("viaInstance", ir.Int, nil, []ir.Instr{
		{Op: ir.OpConstInt, A: 100},
		{Op: ir.OpNew, Owner: "S"},
		{Op: ir.OpInvokeVirtual, Owner: "T", Member: "seven"},
		{Op: ir.OpAdd},
		{Op: ir.OpReturnValue},
	})
	native := func(name string, ret ir.Type, params ...ir.Type) *ir.Method {
		return &ir.Method{Name: name, Params: params, Return: ret, Static: true, Native: true, Access: ir.AccessPublic}
	}
	// 1000 + twice(21) - 1; nothing() leaves the stack as it was.
	natives := staticMethod("natives", ir.Int, nil, []ir.Instr{
		{Op: ir.OpConstInt, A: 1000},
		{Op: ir.OpConstInt, A: 21},
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "twice", NArgs: 1},
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "nothing"},
		{Op: ir.OpAdd},
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpSub},
		{Op: ir.OpReturnValue},
	})
	// 40 + 2 around a call of each native that hands back what its
	// method does not declare: no value from none() and a string from
	// wrong(), which return an int that is popped, and a value from
	// loud(), which returns nothing.
	quirky := func(name, callee string, drop ...ir.Instr) *ir.Method {
		code := []ir.Instr{{Op: ir.OpConstInt, A: 40}, {Op: ir.OpInvokeStatic, Owner: "T", Member: callee}}
		code = append(code, drop...)
		code = append(code, ir.Instr{Op: ir.OpConstInt, A: 2}, ir.Instr{Op: ir.OpAdd}, ir.Instr{Op: ir.OpReturnValue})
		return staticMethod(name, ir.Int, nil, code)
	}
	// 5 + grow(600), where grow calls deep(600) by name.
	grows := staticMethod("grows", ir.Int, nil, []ir.Instr{
		{Op: ir.OpConstInt, A: 5},
		{Op: ir.OpConstInt, A: 600},
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "grow", NArgs: 1},
		{Op: ir.OpAdd},
		{Op: ir.OpReturnValue},
	})
	// deep(n) = n == 0 ? 0 : deep(n-1) + n, a frame per level.
	deep := staticMethod("deep", ir.Int, []ir.Type{ir.Int}, []ir.Instr{
		{Op: ir.OpLoad, A: 0},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpCmpEq},
		{Op: ir.OpJumpIfNot, A: 6},
		{Op: ir.OpConstInt, A: 0},
		{Op: ir.OpReturnValue},
		{Op: ir.OpLoad, A: 0}, // 6
		{Op: ir.OpConstInt, A: 1},
		{Op: ir.OpSub},
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "deep", NArgs: 1},
		{Op: ir.OpLoad, A: 0},
		{Op: ir.OpAdd},
		{Op: ir.OpReturnValue},
	})
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass, Methods: []*ir.Method{
		seven, viaInstance, natives, grows, deep,
		quirky("callsNone", "none", ir.Instr{Op: ir.OpPop}), quirky("callsWrong", "wrong", ir.Instr{Op: ir.OpPop}),
		quirky("callsLoud", "loud"),
		native("twice", ir.Int, ir.Int), native("nothing", ir.Void), native("grow", ir.Int, ir.Int),
		native("none", ir.Int), native("wrong", ir.Int), native("loud", ir.Void),
	}})
	p.MustAdd(&ir.Class{Name: "S", Super: "T", Methods: []*ir.Method{hiding}})
	return p
}

// TestResultsLandWhereCallersRead: a callee's result is the value its
// caller's next instruction reads, whichever way it was reached and
// whoever produced it, and a native's caller finds a result exactly when
// the method declares one: a non-void native that returns nothing, or a
// value of another kind, is refused when it returns.
func TestResultsLandWhereCallersRead(t *testing.T) {
	v := MustNew(resultProgram())
	v.RegisterNative("T", "twice", 1, func(_ *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(2 * args[0].I), nil, nil
	})
	v.RegisterNative("T", "nothing", 0, func(*Env, Value, []Value) (Value, *Thrown, error) {
		return Value{}, nil, nil
	})
	v.RegisterNative("T", "none", 0, func(*Env, Value, []Value) (Value, *Thrown, error) {
		return Value{}, nil, nil
	})
	v.RegisterNative("T", "wrong", 0, func(*Env, Value, []Value) (Value, *Thrown, error) {
		return StringV("7"), nil, nil
	})
	v.RegisterNative("T", "loud", 0, func(*Env, Value, []Value) (Value, *Thrown, error) {
		return IntV(5), nil, nil
	})
	grew := false
	v.RegisterNative("T", "grow", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		before := len(env.slab)
		res, thrown, err := env.Call("T", "deep", Value{}, []Value{args[0]})
		grew = len(env.slab) > before
		return res, thrown, err
	})
	for _, tc := range []struct {
		method string
		want   int64
	}{
		{"viaInstance", 107},
		{"natives", 1041},
		{"grows", 5 + 600*601/2},
		{"callsLoud", 42},
	} {
		got, err := v.Invoke("T", tc.method, Value{}, nil)
		if err != nil || got != IntV(tc.want) {
			t.Errorf("%s() = %v %v, want %d", tc.method, got, err, tc.want)
		}
	}
	for method, want := range map[string]string{
		"callsNone":  "vm fault: native T.none returned nothing, not int",
		"callsWrong": "vm fault: native T.wrong returned string, not int",
	} {
		if got, err := v.Invoke("T", method, Value{}, nil); err == nil || err.Error() != want {
			t.Errorf("%s() = %v %v, want %q", method, got, err, want)
		}
	}
	if !grew {
		t.Error("deep(600) did not grow the slab under grow's caller")
	}
}

// TestNewArrayLengthBound: an array longer than the wire can carry is an
// exception the program can catch, not an allocation that can take the
// process down.
func TestNewArrayLengthBound(t *testing.T) {
	prog := buildClass(&ir.Method{
		Name: "f", Params: []ir.Type{ir.Int}, Return: ir.Int, Static: true,
		Access: ir.AccessPublic, MaxLocals: 2,
		Handlers: []ir.TryHandler{{Start: 1, End: 2, Target: 4, CatchClass: stdlib.IndexBoundsClass}},
		Code: []ir.Instr{
			{Op: ir.OpLoad, A: 0},
			{Op: ir.OpNewArray, TypeRef: &ir.Int},
			{Op: ir.OpArrayLen},
			{Op: ir.OpReturnValue},
			{Op: ir.OpInvokeVirtual, Owner: ir.ThrowableClass, Member: "getMessage"}, // 4
			{Op: ir.OpInvokeStatic, Owner: stdlib.StringsClass, Member: "length", NArgs: 1},
			{Op: ir.OpNeg},
			{Op: ir.OpReturnValue},
		},
	})
	v := MustNew(prog)
	for _, n := range []int64{0, 3, 1 << 10} {
		if got, err := v.Invoke("T", "f", Value{}, []Value{IntV(n)}); err != nil || got.I != n {
			t.Errorf("new int[%d].length = %v %v", n, got, err)
		}
	}
	for _, n := range []int64{1 << 40, 1<<24 + 1, -1} {
		want := -int64(len(fmt.Sprintf("array length %d", n)))
		if got, err := v.Invoke("T", "f", Value{}, []Value{IntV(n)}); err != nil || got.I != want {
			t.Errorf("new int[%d] = %v %v, want the handler's %d", n, got, err, want)
		}
	}
}

// TestThrowOfNonThrowable: the verifier proves that a throw's operand is
// a reference, not that its class is a Throwable, so a throw of any
// other object faults when it runs.
func TestThrowOfNonThrowable(t *testing.T) {
	prog := buildClass(staticMethod("f", ir.Void, nil, []ir.Instr{{Op: ir.OpNew, Owner: "T"}, {Op: ir.OpThrow}}))
	if _, err := MustNew(prog).Invoke("T", "f", Value{}, nil); err == nil || err.Error() != "vm fault: T.f pc=1: throw of non-throwable <T>" {
		t.Fatalf("throw of a T: %v", err)
	}
}
