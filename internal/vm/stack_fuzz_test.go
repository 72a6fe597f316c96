package vm

import (
	"errors"
	"fmt"
	"regexp"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
	"rafda/internal/verifier"
)

// fuzzOps are the instructions FuzzStackDepths builds bodies from; each
// takes its operand (a slot, a constant, a jump target, a field of T, a
// class to instantiate or a type) from one byte.  The operands they pop are of whatever kinds the
// instructions before them pushed.
var fuzzOps = []ir.Op{
	ir.OpConstInt, ir.OpConstBool, ir.OpLoad, ir.OpStore,
	ir.OpDup, ir.OpPop, ir.OpSwap,
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpNeg,
	ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpGe,
	ir.OpJump, ir.OpJumpIf, ir.OpJumpIfNot, ir.OpReturn,
	ir.OpConstString, ir.OpConstFloat, ir.OpConstNull, ir.OpNot, ir.OpConcat,
	ir.OpNew, ir.OpGetField, ir.OpPutField,
	ir.OpNewArray, ir.OpALoad, ir.OpAStore, ir.OpArrayLen,
	ir.OpCast, ir.OpInstanceOf, ir.OpInvokeVirtual, ir.OpThrow,
}

// fuzzFields are T's instance fields, one of each kind a field access
// meets; fuzzTypes are the types newarray, cast and const.null name.
var (
	fuzzFields = []ir.Field{
		{Name: "i", Type: ir.Int}, {Name: "s", Type: ir.String},
		{Name: "a", Type: ir.ArrayOf(ir.Int)}, {Name: "r", Type: ir.Ref("T")},
	}
	fuzzTypes = []ir.Type{ir.Int, ir.Float, ir.Ref("T"), ir.ArrayOf(ir.Int)}
)

// bigSlots are the slots a load or store names when its operand byte is
// 0xfd or above: the last slot the verifier allows, the first it
// refuses, and one no frame could hold.
var bigSlots = [...]int64{1<<16 - 1, 1 << 16, 1 << 60}

// fuzzBody decodes data into a static method body T.f: a flags byte (bit
// 0: f returns int, bit 1: one catch-all handler whose start, end and
// target are the next three bytes), then two bytes per instruction.
// Slots are 0-3 or one of bigSlots, jumps land inside the body, names
// resolve, and a return is the one that matches f's type, so every
// operand but a big slot is one the verifier accepts: what it refuses
// are the shapes and kinds of the values the body moves.
func fuzzBody(data []byte) *ir.Method {
	if len(data) == 0 {
		data = []byte{0}
	}
	flags, data := data[0], data[1:]
	var hs []byte
	if flags&2 != 0 && len(data) >= 3 {
		hs, data = data[:3], data[3:]
	}
	n := min(len(data)/2, 64)
	if n == 0 {
		n, data = 1, []byte{byte(len(fuzzOps) - 1), 0}
	}
	ret := ir.Void
	if flags&1 != 0 {
		ret = ir.Int
	}
	code := make([]ir.Instr, n)
	for i := range code {
		op, arg := fuzzOps[int(data[2*i])%len(fuzzOps)], data[2*i+1]
		in := ir.Instr{Op: op}
		switch op {
		case ir.OpConstInt:
			in.A = int64(arg)
		case ir.OpConstBool:
			in.A = int64(arg & 1)
		case ir.OpLoad, ir.OpStore:
			in.A = int64(arg % 4)
			if i := int(arg) - (256 - len(bigSlots)); i >= 0 {
				in.A = bigSlots[i]
			}
		case ir.OpJump, ir.OpJumpIf, ir.OpJumpIfNot:
			in.A = int64(int(arg) % n)
		case ir.OpReturn:
			if flags&1 != 0 {
				in.Op = ir.OpReturnValue
			}
		case ir.OpConstString:
			in.Str = string(rune('a' + arg%26))
		case ir.OpConstFloat:
			in.F = float64(arg) / 4
		case ir.OpConstNull, ir.OpNewArray, ir.OpCast:
			t := fuzzTypes[int(arg)%len(fuzzTypes)]
			in.TypeRef = &t
		case ir.OpInstanceOf:
			in.TypeRef = &fuzzTypes[2]
		case ir.OpNew:
			in.Owner = "T"
			if arg&1 != 0 {
				// A U, whose own field a holds a string[].
				in.Op, in.Owner, in.Member = ir.OpInvokeStatic, "U", "make"
			}
		case ir.OpGetField, ir.OpPutField:
			in.Owner, in.Member = "T", fuzzFields[int(arg)%len(fuzzFields)].Name
		case ir.OpInvokeVirtual:
			// T's accessors of i, which a call site runs in place.
			in.Owner, in.Member = "T", "get_i"
			if arg&1 != 0 {
				in.Member, in.NArgs = "set_i", 1
			}
		}
		code[i] = in
	}
	m := staticMethod("f", ret, nil, code)
	if hs != nil {
		m.Handlers = []ir.TryHandler{{Start: int(hs[0]) % n, End: int(hs[1])%n + 1, Target: int(hs[2]) % n}}
	}
	return m
}

// fuzzCaller is T.g, which calls f and returns what f returns.
func fuzzCaller(f *ir.Method) *ir.Method {
	ret := ir.Instr{Op: ir.OpReturn}
	if f.Return.Kind != ir.KindVoid {
		ret.Op = ir.OpReturnValue
	}
	return staticMethod("g", f.Return, nil, []ir.Instr{{Op: ir.OpInvokeStatic, Owner: "T", Member: "f"}, ret})
}

// fuzzProgram is class T with the fuzzed f, its caller g, fuzzFields and
// the accessors of i; and U, a subclass of T whose field a is a string[]
// in T's int[] a's slot (see VM.fieldLayout), with U.make, which returns
// a U whose a holds one string.
func fuzzProgram(f *ir.Method) *ir.Program {
	accessor := func(name string, ret ir.Type, params []ir.Type, code ...ir.Instr) *ir.Method {
		return &ir.Method{Name: name, Params: params, Return: ret, Access: ir.AccessPublic, Code: code}
	}
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass, Fields: fuzzFields, Methods: []*ir.Method{
		f, fuzzCaller(f),
		accessor("get_i", ir.Int, nil,
			ir.Instr{Op: ir.OpLoad}, ir.Instr{Op: ir.OpGetField, Owner: "T", Member: "i"}, ir.Instr{Op: ir.OpReturnValue}),
		accessor("set_i", ir.Void, []ir.Type{ir.Int},
			ir.Instr{Op: ir.OpLoad}, ir.Instr{Op: ir.OpLoad, A: 1},
			ir.Instr{Op: ir.OpPutField, Owner: "T", Member: "i"}, ir.Instr{Op: ir.OpReturn}),
	}})
	p.MustAdd(&ir.Class{Name: "U", Super: "T", Fields: []ir.Field{{Name: "a", Type: ir.ArrayOf(ir.String)}}, Methods: []*ir.Method{
		staticMethod("make", ir.Ref("T"), nil, []ir.Instr{
			{Op: ir.OpNew, Owner: "U"}, {Op: ir.OpDup}, {Op: ir.OpConstInt, A: 1}, {Op: ir.OpNewArray, TypeRef: &ir.String},
			{Op: ir.OpDup}, {Op: ir.OpConstInt}, {Op: ir.OpConstString, Str: "u"}, {Op: ir.OpAStore},
			{Op: ir.OpPutField, Owner: "U", Member: "a"}, {Op: ir.OpReturnValue},
		}),
	}})
	return p
}

// fuzzEnds is every way a verified f or g may fault: the step limit, in
// them or in a method they call; a field access or a call of T's
// accessors on an object without them (a caught exception is a ref, which
// a T's field or invoke site takes, as the verifier tracks no classes),
// or an access of T's a on a U; or a throw of an object that is not a
// Throwable.  A body that verifies
// never faults on its shape or on the kinds of its values.
var fuzzEnds = regexp.MustCompile(`^([TU]\.\w+ pc=\d+: (step limit exceeded|no field [isar] on sys\.\w+|no field a on U|throw of non-throwable <[TU]>)|resolve: no method sys\.\w+\.[gs]et_i/[01])$`)

// FuzzStackDepths holds the VM to the verifier's walk.  A body the
// verifier refuses is refused when first invoked, with the verifier's
// message.  A body it accepts runs without a Go panic and ends only in a
// value of its declared kind, a throw, or one of the faults fuzzEnds
// lists.  It also holds the calling convention to a direct call:
// when f, invoked directly, ends with a value or an uncaught exception,
// g, which calls it, ends the same way.
func FuzzStackDepths(f *testing.F) {
	for _, seed := range [][]byte{
		{0},                           // return
		{1, 0, 7, 19, 0},              // const; return.v
		{0, 0, 1, 16, 0},              // const; jump 0: deeper every lap
		{1, 0, 3, 2, 0, 7, 0, 19, 0},  // const; load; add; return.v
		{0, 1, 1, 18, 3, 0, 2, 19, 0}, // const.b; jump.ifnot 3; const; return: bad join
		{0, 5, 0, 19, 0},              // pop: underflow
		{3, 0, 2, 4, 0, 1, 0, 0, 10, 0, 19, 0, 19, 0},                             // div by zero in a try
		{2, 0, 0, 0, 19, 0},                                                       // handler entered at pc 0: bad join
		{1, 0, 5, 4, 0, 3, 1, 2, 1, 7, 0, 19, 0},                                  // dup, store, load, add
		{0, 0, 0, 3, 0, 2, 0, 0, 1, 7, 0, 4, 0, 3, 0, 0, 10, 14, 0, 17, 2, 19, 0}, // counted loop
		{1, 0, 1, 0, 0, 10, 0, 19, 0},                                             // div by zero, uncaught
		{3, 0, 2, 4, 0, 7, 0, 0, 10, 0, 19, 0, 5, 0, 0, 42, 19, 0},                // div by zero caught: 42
		{3, 0, 2, 4, 0, 5, 0, 0, 11, 0, 19, 0, 5, 0, 0, 3, 0, 4, 7, 0, 19, 0},     // rem by zero caught: 3+4
		{1, 0, 9, 3, 0xfd, 3, 0xfd, 19, 0},                                        // store, load the last slot
		{1, 2, 0xfe, 19, 0},                                                       // load the first slot past it
		{0, 0, 1, 3, 0xff, 19, 0},                                                 // store far past it
		{1, 1, 1, 0, 0, 13, 0, 19, 0},                                             // cmp.eq of bool and int: refused
		{1, 20, 0, 0, 1, 7, 0, 19, 0},                                             // add of string and int: refused
		{1, 21, 8, 0, 1, 7, 0, 32, 0, 19, 0},                                      // 2.0 + 1 cast to int
		{0, 25, 0, 0, 5, 27, 0, 19, 0},                                            // new T; putfield T.i 5
		{1, 25, 0, 4, 0, 0, 5, 27, 0, 34, 0, 19, 0},                               // ... then get_i() at its call site
		{1, 25, 0, 0, 5, 27, 1, 19, 0},                                            // putfield T.s of an int: refused
		{1, 25, 0, 26, 2, 31, 0, 19, 0},                                           // new T; getfield T.a; arraylen: NPE
		{1, 25, 1, 26, 2, 0, 0, 29, 0, 19, 0},                                     // U.make(); getfield T.a; aload 0: no field
		{1, 0, 3, 28, 0, 4, 0, 0, 1, 0, 9, 30, 0, 0, 1, 29, 0, 19, 0},             // a = new int[3]; a[1] = 9; a[1]
		{1, 0, 3, 28, 0, 0, 0, 6, 0, 29, 0, 19, 0},                                // aload with an array index: refused
		{1, 22, 3, 0, 0, 29, 0, 19, 0},                                            // aload on a null int[]: NPE
		{0, 25, 0, 35, 0},                                                         // throw of a T
		{1, 3, 0, 2, 0, 19, 0},                                                    // store of nothing: underflow
		{1, 2, 0, 19, 0},                                                          // load of an unset local: refused
		{1, 0, 1, 3, 0, 1, 0, 17, 6, 20, 0, 3, 0, 2, 0, 19, 0},                    // a local of two kinds at a join: refused
		[]byte("210C$0$\x00.070b00070"),                                           // getfield T.i of a caught exception: no field
		[]byte("210C$0$\x00.070\"00070"),                                          // get_i() of a caught exception: no method
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzBody(data)
		p := fuzzProgram(m)
		var errs []string
		for _, err := range verifier.Verify(p) {
			errs = append(errs, err.Error())
		}
		show := func() string { return ir.Sprint(p.Class("T"), ir.PrintOptions{Code: true}) }
		res, err := MustNew(p, WithMaxSteps(2000)).Invoke("T", "f", Value{}, nil)
		if len(errs) > 0 {
			if want := "vm fault: link: " + errs[0]; fmt.Sprint(err) != want {
				t.Fatalf("f() = %v, %v, want the refusal %q\n%s", res, err, want, show())
			}
			return
		}
		var fe *FaultError
		if errors.As(err, &fe) {
			if !fuzzEnds.MatchString(fe.Msg) {
				t.Fatalf("verified body faulted: %v\n%s", err, show())
			}
			return
		}
		if err == nil && res.K != m.Return.Kind && !(res.IsVoid() && m.Return.IsVoid()) {
			t.Fatalf("verified body returned %v of kind %v, want a %s\n%s", res, res.K, m.Return, show())
		}
		// g spends two steps of its own: the invoke and the return.  The
		// runs are on two VMs, so an object compares by its class.
		gres, gerr := MustNew(p, WithMaxSteps(2002)).Invoke("T", "g", Value{}, nil)
		if gres.K != res.K || gres.String() != res.String() || fmt.Sprint(gerr) != fmt.Sprint(err) {
			t.Fatalf("f() = %v, %v but g() = %v, %v\n%s", res, err, gres, gerr, show())
		}
	})
}
