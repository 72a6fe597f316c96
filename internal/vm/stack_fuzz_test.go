package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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

// fuzzBody decodes data into a static method body T.f: a flags byte (bit
// 0: f returns int, bit 1: one catch-all handler whose start, end and
// target are the next three bytes), then two bytes per instruction.
// Slots are 0-3, jumps land inside the body, and a return is the one that
// matches f's type, so every operand is one the verifier accepts.
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

// FuzzStackDepths holds the one operand-stack walk (ir.Program.Depths) to
// its two readers: it terminates on any body; a body the verifier accepts
// never overflows the frame the interpreter sized from it; and a fault it
// reports is the verifier's error, message and pc alike.  It also holds
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzBody(data)
		p := buildClass(m, fuzzCaller(m))
		_, fault := p.Depths(m)
		var errs []string
		for _, err := range verifier.Verify(p) {
			errs = append(errs, err.Error())
		}
		if fault != nil {
			want := fmt.Sprintf("T.f pc=%d: %s", fault.PC, fault.Msg)
			if !slices.Contains(errs, want) {
				t.Fatalf("walk reports %q, verifier reports %q\n%s", want, errs, ir.Sprint(p.Class("T"), ir.PrintOptions{Code: true}))
			}
		}
		if len(errs) > 0 {
			return
		}
		res, err := MustNew(p, WithMaxSteps(2000)).Invoke("T", "f", Value{}, nil)
		var fe *FaultError
		if errors.As(err, &fe) && strings.Contains(fe.Msg, "operand stack overflow") {
			t.Fatalf("verified body overflowed its frame: %v\n%s", err, ir.Sprint(p.Class("T"), ir.PrintOptions{Code: true}))
		}
		if fe != nil {
			return
		}
		// g spends two steps of its own: the invoke and the return.  The
		// runs are on two VMs, so an object compares by its class.
		gres, gerr := MustNew(p, WithMaxSteps(2002)).Invoke("T", "g", Value{}, nil)
		if gres.K != res.K || gres.String() != res.String() || fmt.Sprint(gerr) != fmt.Sprint(err) {
			t.Fatalf("f() = %v, %v but g() = %v, %v\n%s", res, err, gres, gerr, ir.Sprint(p.Class("T"), ir.PrintOptions{Code: true}))
		}
	})
}
