package verifier

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rafda/internal/corpus"
	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

// faultyCorpus is a 400-class JDK-like corpus (several fan-out chunks)
// with a fault planted in each of six generated classes spread across it.
func faultyCorpus() *ir.Program {
	p := corpus.JDKLike()
	p.Classes = 400
	prog := corpus.Generate(p)
	classes := prog.Classes()[stdlib.Program().Len():]
	bad := func(i int, code ...ir.Instr) *ir.Method {
		return &ir.Method{Name: fmt.Sprintf("bad%d", i), Return: ir.Void, Access: ir.AccessPublic, Code: code, MaxLocals: 1}
	}
	faults := []func(c *ir.Class){
		func(c *ir.Class) {
			c.Methods = append(c.Methods, bad(0, ir.Instr{Op: ir.OpPop}, ir.Instr{Op: ir.OpReturn}))
		},
		func(c *ir.Class) {
			c.Methods = append(c.Methods, bad(1, ir.Instr{Op: ir.OpJump, A: 99}, ir.Instr{Op: ir.OpReturn}))
		},
		func(c *ir.Class) { c.Fields = append(c.Fields, ir.Field{Name: "ghost", Type: ir.Ref("Ghost")}) },
		func(c *ir.Class) {
			c.Fields = append(c.Fields, ir.Field{Name: "dup", Type: ir.Int}, ir.Field{Name: "dup", Type: ir.Int})
		},
		func(c *ir.Class) {
			m := bad(4, ir.Instr{Op: ir.OpReturn})
			m.Abstract = true
			c.Methods = append(c.Methods, m)
		},
		func(c *ir.Class) {
			m := bad(5, ir.Instr{Op: ir.OpReturn})
			m.Handlers = []ir.TryHandler{{Start: 5, End: 2, Target: 0}}
			c.Methods = append(c.Methods, m)
		},
	}
	for i, f := range faults {
		f(classes[len(classes)*(2*i+1)/(2*len(faults))])
	}
	return prog
}

// faultyCorpusErrors is Verify(faultyCorpus()) as the serial verifier
// reported it, in order.
var faultyCorpusErrors = []string{
	"Ghost: referenced class is missing from the program",
	"sdk.l0.C0033.bad0 pc=0: stack underflow: depth 0, need 1",
	"sdk.l1.C0100.bad1 pc=0: jump target 99 out of range [0,2)",
	"sdk.l2.C0166: unknown type Ghost",
	"sdk.l2.C0233: duplicate field dup",
	"sdk.l3.C0300.bad4: abstract method has code",
	"sdk.l4.C0366.bad5 pc=0: inconsistent stack depth at join: 0 vs 1",
	"sdk.l4.C0366.bad5: handler range [5,2) invalid",
}

// TestVerifyErrorsDeterministic holds the fanned-out verifier to the
// serial one's error list, order included, at one and at four workers.
func TestVerifyErrorsDeterministic(t *testing.T) {
	prog := faultyCorpus()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var got []string
			for _, err := range Verify(prog) {
				got = append(got, err.Error())
			}
			if strings.Join(got, "\n") != strings.Join(faultyCorpusErrors, "\n") {
				t.Errorf("errors:\n%q\nwant:\n%q", got, faultyCorpusErrors)
			}
		})
	}
}
