package vm

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
	"rafda/internal/verifier"
)

// refusalProgram is T, whose methods bad, getVoid and setInt fail the
// verifier and whose ok passes it; the callers reach each refused method
// by name, through an invoke, and at an accessor call site.
func refusalProgram() *ir.Program {
	ok := staticMethod("ok", ir.Int, nil, []ir.Instr{{Op: ir.OpConstInt, A: 7}, {Op: ir.OpReturnValue}})
	bad := staticMethod("bad", ir.Int, nil, []ir.Instr{{Op: ir.OpConstInt, A: 1}, {Op: ir.OpAdd}, {Op: ir.OpReturnValue}})
	callsBad := staticMethod("callsBad", ir.Int, nil, []ir.Instr{
		{Op: ir.OpInvokeStatic, Owner: "T", Member: "bad"}, {Op: ir.OpReturnValue},
	})
	// A getter's shape in a void method, and a setter's in an int one:
	// run at their call sites, they would leave the caller's stack one
	// operand off the depth its verified walk assumes.
	getVoid := &ir.Method{Name: "getVoid", Return: ir.Void, Access: ir.AccessPublic, MaxLocals: 1, Code: []ir.Instr{
		{Op: ir.OpLoad, A: 0}, {Op: ir.OpGetField, Owner: "T", Member: "x"}, {Op: ir.OpReturnValue},
	}}
	setInt := &ir.Method{Name: "setInt", Params: []ir.Type{ir.Int}, Return: ir.Int, Access: ir.AccessPublic, MaxLocals: 2, Code: []ir.Instr{
		{Op: ir.OpLoad, A: 0}, {Op: ir.OpLoad, A: 1}, {Op: ir.OpPutField, Owner: "T", Member: "x"}, {Op: ir.OpReturn},
	}}
	viaGetter := staticMethod("viaGetter", ir.Void, nil, []ir.Instr{
		{Op: ir.OpNew, Owner: "T"}, {Op: ir.OpInvokeVirtual, Owner: "T", Member: "getVoid"}, {Op: ir.OpReturn},
	})
	viaSetter := staticMethod("viaSetter", ir.Int, nil, []ir.Instr{
		{Op: ir.OpNew, Owner: "T"}, {Op: ir.OpConstInt, A: 5},
		{Op: ir.OpInvokeVirtual, Owner: "T", Member: "setInt", NArgs: 1}, {Op: ir.OpReturnValue},
	})
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass,
		Fields:  []ir.Field{{Name: "x", Type: ir.Int}},
		Methods: []*ir.Method{ok, bad, callsBad, getVoid, setInt, viaGetter, viaSetter}})
	return p
}

// TestLinkRefusesUnverifiedCode: a method the verifier refuses is
// refused on its first activation with the verifier's message, and every
// later call — by name from the host, from an execution, through an
// invoke or at an accessor call site — gets the same refusal without
// verifying again.
func TestLinkRefusesUnverifiedCode(t *testing.T) {
	p := refusalProgram()
	verified := map[string]string{}
	for _, err := range verifier.Verify(p) {
		var ve *verifier.Error
		if errors.As(err, &ve) && verified[ve.Method] == "" {
			verified[ve.Method] = err.Error()
		}
	}
	for method, want := range map[string]string{
		"bad":     "T.bad pc=1: stack underflow: depth 1, need 2",
		"getVoid": "T.getVoid pc=2: value return in void method",
		"setInt":  "T.setInt pc=3: void return in non-void method",
	} {
		if verified[method] != want {
			t.Fatalf("verifier on T.%s: %q, want %q", method, verified[method], want)
		}
	}
	if len(verified) != 3 {
		t.Fatalf("verifier refuses %v, want only bad, getVoid and setInt", verified)
	}

	v := MustNew(p)
	obj, err := v.NewObject("T")
	if err != nil {
		t.Fatal(err)
	}
	refusal := func(method string) *FaultError {
		t.Helper()
		var b *body
		for m, c := range v.classLink(p.Class("T")).codes {
			if m.Name == method {
				b = c.body.Load()
			}
		}
		if b == nil || b.refused == nil {
			t.Fatalf("T.%s is not linked as refused", method)
		}
		if want := "vm fault: link: " + verified[method]; b.refused.Error() != want {
			t.Fatalf("T.%s refused with %q, want %q", method, b.refused, want)
		}
		return b.refused
	}
	same := func(what string, method string, err error) {
		t.Helper()
		var fe *FaultError
		if !errors.As(err, &fe) || fe != refusal(method) {
			t.Errorf("%s: %v, want T.%s's one refusal", what, err, method)
		}
	}
	for range 3 {
		_, err := v.Invoke("T", "bad", Value{}, nil)
		same("Invoke(bad)", "bad", err)
		_, err = v.Invoke("T", "callsBad", Value{}, nil)
		same("Invoke(callsBad)", "bad", err)
		v.Exec(func(env *Env) {
			_, _, err = env.Call("T", "bad", Value{}, nil)
		})
		same("Env.Call(bad)", "bad", err)
		_, err = v.Invoke("T", "viaGetter", Value{}, nil)
		same("accessor site of getVoid", "getVoid", err)
		_, err = v.Invoke("T", "viaSetter", Value{}, nil)
		same("accessor site of setInt", "setInt", err)
		_, err = v.Invoke("T", "setInt", RefV(obj), []Value{IntV(9)})
		same("Invoke(setInt) on an object", "setInt", err)
	}
	if got, _ := obj.Field("x"); got != IntV(0) {
		t.Errorf("a refused setter wrote x = %v", got)
	}
	if got, err := v.Invoke("T", "ok", Value{}, nil); err != nil || got != IntV(7) {
		t.Errorf("T.ok() = %v %v, want 7", got, err)
	}
}

// TestFirstLinkRace: executions racing the first link of a method each
// verify it, and all of them use the one body that was stored first,
// whether it holds a frame shape or a refusal.
func TestFirstLinkRace(t *testing.T) {
	p := refusalProgram()
	v := MustNew(p)
	const racers = 8
	for _, method := range []string{"ok", "bad"} {
		c := v.classLink(p.Class("T")).codes[p.Class("T").Method(method, 0)]
		var start, done sync.WaitGroup
		start.Add(1)
		got := make([]*body, racers)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = v.linkBody(c)
			}()
		}
		start.Done()
		done.Wait()
		stored := c.body.Load()
		for i, b := range got {
			if b != stored {
				t.Fatalf("T.%s: racer %d linked its own body", method, i)
			}
		}
		if (stored.refused != nil) != (method == "bad") {
			t.Fatalf("T.%s linked as %+v", method, stored)
		}
	}
}

// TestDispatchToOtherReturn: an override that returns nothing where the
// method it overrides returns a value — or the reverse — is refused by
// the verifier, and a dispatch that lands on it faults, so a call never
// leaves the caller's stack at another depth than its verified walk
// assumed.
func TestDispatchToOtherReturn(t *testing.T) {
	p := stdlib.Program()
	inst := func(name string, ret ir.Type, code ...ir.Instr) *ir.Method {
		return &ir.Method{Name: name, Return: ret, Access: ir.AccessPublic, MaxLocals: 1, Code: code}
	}
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass, Methods: []*ir.Method{
		inst("seven", ir.Int, ir.Instr{Op: ir.OpConstInt, A: 7}, ir.Instr{Op: ir.OpReturnValue}),
		inst("quiet", ir.Void, ir.Instr{Op: ir.OpReturn}),
	}})
	p.MustAdd(&ir.Class{Name: "S", Super: "T", Methods: []*ir.Method{
		inst("seven", ir.Void, ir.Instr{Op: ir.OpReturn}),
		inst("quiet", ir.Int, ir.Instr{Op: ir.OpConstInt, A: 1}, ir.Instr{Op: ir.OpReturnValue}),
	}})
	p.MustAdd(&ir.Class{Name: "U", Super: ir.ObjectClass, Methods: []*ir.Method{
		staticMethod("seven", ir.Int, nil, []ir.Instr{
			{Op: ir.OpNew, Owner: "S"}, {Op: ir.OpInvokeVirtual, Owner: "T", Member: "seven"}, {Op: ir.OpReturnValue},
		}),
		staticMethod("quiet", ir.Int, nil, []ir.Instr{
			{Op: ir.OpConstInt, A: 3},
			{Op: ir.OpNew, Owner: "S"}, {Op: ir.OpInvokeVirtual, Owner: "T", Member: "quiet"}, {Op: ir.OpReturnValue},
		}),
	}})
	var errs []string
	for _, err := range verifier.Verify(p) {
		errs = append(errs, err.Error())
	}
	if want := []string{
		"S.seven: declares seven()V but overrides T.seven()I",
		"S.quiet: declares quiet()I but overrides T.quiet()V",
	}; !slices.Equal(errs, want) {
		t.Errorf("Verify = %q, want %q", errs, want)
	}
	v := MustNew(p)
	for method, want := range map[string]string{
		"seven": "vm fault: dispatch of T.seven()I to S.seven()V, which has other types",
		"quiet": "vm fault: dispatch of T.quiet()V to S.quiet()I, which has other types",
	} {
		if got, err := v.Invoke("U", method, Value{}, nil); err == nil || err.Error() != want {
			t.Errorf("U.%s() = %v %v, want %q", method, got, err, want)
		}
	}
}
