package vm

import (
	"errors"
	"fmt"
	"regexp"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/verifier"
)

// fuzzOps are the instructions FuzzStackDepths builds bodies from; each
// takes its operand (a slot, a constant or a jump target) from one byte.
var fuzzOps = []ir.Op{
	ir.OpConstInt, ir.OpConstBool, ir.OpLoad, ir.OpStore,
	ir.OpDup, ir.OpPop, ir.OpSwap,
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpNeg,
	ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpGe,
	ir.OpJump, ir.OpJumpIf, ir.OpJumpIfNot, ir.OpReturn,
}

// bigSlots are the slots a load or store names when its operand byte is
// 0xfd or above: the last slot the verifier allows, the first it
// refuses, and one no frame could hold.
var bigSlots = [...]int64{1<<16 - 1, 1 << 16, 1 << 60}

// fuzzBody decodes data into a static method body T.f: a flags byte (bit
// 0: f returns int, bit 1: one catch-all handler whose start, end and
// target are the next three bytes), then two bytes per instruction.
// Slots are 0-3 or one of bigSlots, jumps land inside the body, and a
// return is the one that matches f's type, so every operand but a big
// slot is one the verifier accepts.
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

// fuzzEnds is every way a verified f or g may fault: the step limit, or
// a comparison of values of kinds it cannot compare.  A body that
// verifies never faults on its shape.
var fuzzEnds = regexp.MustCompile(`^T\.[fg] pc=\d+: (step limit exceeded|cannot (compare|order) \S+ and \S+)$`)

// FuzzStackDepths holds the VM to the verifier's stack check.  A body the
// verifier refuses is refused when first invoked, with the verifier's
// message.  A body it accepts runs without a Go panic and ends only in a
// value, a throw, the step limit or a value-kind fault.  It also holds
// the calling convention to a direct call: when f, invoked directly, ends
// with a value or an uncaught exception, g, which calls it, ends the same
// way.
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
		{1, 1, 1, 0, 0, 13, 0, 19, 0},                                             // cmp.eq of bool and int
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzBody(data)
		p := buildClass(m, fuzzCaller(m))
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
		// g spends two steps of its own: the invoke and the return.  The
		// runs are on two VMs, so an object compares by its class.
		gres, gerr := MustNew(p, WithMaxSteps(2002)).Invoke("T", "g", Value{}, nil)
		if gres.K != res.K || gres.String() != res.String() || fmt.Sprint(gerr) != fmt.Sprint(err) {
			t.Fatalf("f() = %v, %v but g() = %v, %v\n%s", res, err, gres, gerr, show())
		}
	})
}
