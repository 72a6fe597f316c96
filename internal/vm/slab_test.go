package vm

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/stdlib"
)

func compileVM(t *testing.T, src string, opts ...Option) *VM {
	t.Helper()
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// mustCall runs class.method in env and fails on a fault or an exception.
func mustCall(t *testing.T, env *Env, class, method string, recv Value, args ...Value) Value {
	t.Helper()
	res, thrown, err := env.Call(class, method, recv, args)
	if err != nil {
		t.Fatalf("%s.%s: %v", class, method, err)
	}
	if thrown != nil {
		c, m := ThrownMessage(thrown)
		t.Fatalf("%s.%s threw %s: %s", class, method, c, m)
	}
	return res
}

// atRest fails unless env is back where an execution starts: no frames,
// nothing on the slab.
func atRest(t *testing.T, env *Env) {
	t.Helper()
	if env.depth != 0 || env.sp != 0 {
		t.Fatalf("execution left depth=%d sp=%d behind, want 0 0", env.depth, env.sp)
	}
}

// TestSlabGrowsUnderRecursion: a recursion deep enough to move the slab
// several times returns the right value, which it only can if every live
// frame below kept its locals (each adds its own `keep` on the way out).
func TestSlabGrowsUnderRecursion(t *testing.T) {
	v := compileVM(t, `
class R {
    static int sum(int n) {
        if (n == 0) { return 0; }
        int keep = n * 7;
        int below = sum(n - 1);
        return below + keep;
    }
}
class Main { static void main() {} }`, WithMaxDepth(4096))
	const n = 3000
	v.Exec(func(env *Env) {
		before := len(env.slab)
		got := mustCall(t, env, "R", "sum", Value{}, IntV(n))
		if want := int64(7 * n * (n + 1) / 2); got.I != want {
			t.Fatalf("sum(%d) = %d, want %d", n, got.I, want)
		}
		if after := len(env.slab); after < 8*256 || after <= before {
			t.Fatalf("slab went %d -> %d Values: the recursion was meant to grow it several times", before, after)
		}
		atRest(t, env)
	})
}

// TestSlabUnwindOnException: an exception thrown five frames down and
// caught at the top leaves the catching frame intact — its locals, its
// operand stack base, the depth count — so the same call site works on
// the next iteration, and the execution ends at rest.
func TestSlabUnwindOnException(t *testing.T) {
	v := compileVM(t, `
class E {
    static int d5(int i) { if (i % 2 == 0) { throw new sys.RuntimeException("boom"); } return i; }
    static int d4(int i) { int pad = i + 4; return d5(i) + pad - pad; }
    static int d3(int i) { int pad = i + 3; return d4(i) + pad - pad; }
    static int d2(int i) { int pad = i + 2; return d3(i) + pad - pad; }
    static int d1(int i) { int pad = i + 1; return d2(i) + pad - pad; }
    static int top() {
        int acc = 0;
        int guard = 12345;
        for (int i = 0; i < 6; i = i + 1) {
            try { acc = acc + d1(i); } catch (sys.RuntimeException e) { acc = acc + 100; }
        }
        if (guard != 12345) { return -1; }
        return acc;
    }
}
class Main { static void main() {} }`, WithMaxDepth(8))
	// depth 8 is top + d1..d5 + the exception's constructor chain: a
	// depth count that leaked on unwind would hit the limit by the
	// second throw.
	v.Exec(func(env *Env) {
		if got := mustCall(t, env, "E", "top", Value{}); got.I != 300+1+3+5 {
			t.Fatalf("top() = %d, want 309", got.I)
		}
		atRest(t, env)
	})
}

// interruptProgram: Box.run recurses a few frames, then calls the native
// Box.hop, which makes a gated call of Svc.slow on another object; slow
// calls the native Svc.park.  SvcMoved is what the Svc object is morphed
// into while parked.
func interruptProgram() *ir.Program {
	prog, err := minijava.Compile(`
class Svc {
    int base;
    native int park();
    int slow() { int mine = base + 1; return park() + mine; }
}
class SvcMoved {
    int base;
    int slow() { return 42; }
}
class Box {
    Svc svc;
    native int hop();
    int run(int n) {
        if (n == 0) { return hop(); }
        int keep = n * 1000;
        return run(n - 1) + keep;
    }
}
class Main { static void main() {} }`)
	if err != nil {
		panic(err)
	}
	return prog
}

// TestSlabRestoredAfterMigrationInterrupt: a MigrationInterrupt raised in
// RunUnlocked, several interpreted frames above a nested CallGated,
// unwinds to that CallGated, which retries against the morphed class.
// The frames the panic skipped never ran their exits, so the landing
// site must put depth and slab top back itself.
func TestSlabRestoredAfterMigrationInterrupt(t *testing.T) {
	v := MustNew(interruptProgram())
	v.RegisterNative("Box", "hop", 0, func(env *Env, recv Value, _ []Value) (Value, *Thrown, error) {
		depth, sp := env.depth, env.sp
		res, thrown, err := env.CallGated(recv.O.Get("svc").O, "slow", nil)
		if env.depth != depth || env.sp != sp {
			t.Errorf("CallGated returned with depth=%d sp=%d, entered with %d %d", env.depth, env.sp, depth, sp)
		}
		return res, thrown, err
	})
	v.RegisterNative("Svc", "park", 0, func(env *Env, recv Value, _ []Value) (Value, *Thrown, error) {
		env.RunUnlocked(func() {
			// The object migrates away while its invocation is parked.
			if err := v.Morph(recv.O, "SvcMoved", map[string]Value{"base": IntV(0)}); err != nil {
				t.Error(err)
			}
		})
		t.Error("park resumed on a morphed object")
		return IntV(0), nil, nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			box, _ := v.NewObject("Box")
			svc, _ := v.NewObject("Svc")
			box.Set("svc", RefV(svc))
			v.ExecOn(box, func(env *Env) {
				if got := mustCall(t, env, "Box", "run", RefV(box), IntV(3)); got.I != 42+6000 {
					t.Errorf("run(3) = %d, want 6042", got.I)
				}
				atRest(t, env)
			})
		}()
	}
	wg.Wait()
}

// whoProgram has one interface call site, Caller.ask, and a class whose
// method of the same name is native.
func whoProgram(t *testing.T) *VM {
	return compileVM(t, `
interface Who { int who(); }
class Local implements Who { int who() { return 1; } }
class Remote implements Who { native int who(); }
class Caller {
    static int ask(Who w) { return w.who(); }
    static int askTwice(Who a, Who b) {
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) { acc = acc * 10 + a.who(); acc = acc * 10 + b.who(); }
        return acc;
    }
}
class Main { static void main() {} }`)
}

// TestInlineCacheFollowsMorph: the inline cache is keyed by the
// receiver's class pointer, so the same site dispatches an object to
// bytecode before a Morph and to the new class's native after it.
func TestInlineCacheFollowsMorph(t *testing.T) {
	v := whoProgram(t)
	v.RegisterClassNative("Remote", func(env *Env, method string, _ Value, _ []Value) (Value, *Thrown, error) {
		if method != "who" {
			t.Errorf("class native got %q", method)
		}
		return IntV(2), nil, nil
	})
	obj, _ := v.NewObject("Local")
	other, _ := v.NewObject("Local")
	ask := func(o *Object) int64 {
		got, err := v.Invoke("Caller", "ask", Value{}, []Value{RefV(o)})
		if err != nil {
			t.Fatal(err)
		}
		return got.I
	}
	if got := ask(obj); got != 1 {
		t.Fatalf("before morph: %d", got)
	}
	if err := v.Morph(obj, "Remote", nil); err != nil {
		t.Fatal(err)
	}
	if got := ask(obj); got != 2 {
		t.Fatalf("after morph the site still answered %d, want the native's 2", got)
	}
	if got := ask(other); got != 1 {
		t.Fatalf("an unmorphed Local at the same site: %d", got)
	}
	// Two sites alternating between the two classes: every call misses.
	got, err := v.Invoke("Caller", "askTwice", Value{}, []Value{RefV(obj), RefV(other)})
	if err != nil || got.I != 21212121 {
		t.Fatalf("alternating receivers: %v %v", got, err)
	}
}

// accessorProgram: P's get_x and set_x are trivial accessors, Q overrides
// get_x with one that is not, and R's get_x is native, as a proxy's is.
// Loop's call sites are what the tests drive; Special reaches P's
// accessors through invokespecial, which minijava never emits.
func accessorProgram(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := minijava.Compile(`
class P {
    int x;
    int get_x() { return x; }
    void set_x(int v) { x = v; }
}
class Q extends P { int get_x() { return x + 100; } }
class R { int x; native int get_x(); }
class K { string x; }
class Loop {
    static int bump(P p, int n) {
        for (int i = 0; i < n; i = i + 1) { p.set_x(p.get_x() + 1); }
        return p.get_x();
    }
    static int read(P p) { return p.get_x(); }
    static int alternate(P a, P b) {
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) {
            P p = a;
            if (i % 2 == 1) { p = b; }
            acc = acc * 1000 + p.get_x();
        }
        return acc;
    }
}
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	special := func(name string, params []ir.Type, code ...ir.Instr) *ir.Method {
		return &ir.Method{Name: name, Params: params, Return: ir.Int, Static: true,
			Access: ir.AccessPublic, MaxLocals: len(params), Code: code}
	}
	prog.MustAdd(&ir.Class{Name: "Special", Super: ir.ObjectClass, Methods: []*ir.Method{
		special("put", []ir.Type{ir.Ref("P"), ir.Int},
			ir.Instr{Op: ir.OpLoad, A: 0}, ir.Instr{Op: ir.OpLoad, A: 1},
			ir.Instr{Op: ir.OpInvokeSpecial, Owner: "P", Member: "set_x", NArgs: 1},
			ir.Instr{Op: ir.OpLoad, A: 0},
			ir.Instr{Op: ir.OpInvokeSpecial, Owner: "P", Member: "get_x"},
			ir.Instr{Op: ir.OpReturnValue}),
		special("onInt", nil,
			ir.Instr{Op: ir.OpConstInt, A: 7},
			ir.Instr{Op: ir.OpInvokeSpecial, Owner: "P", Member: "get_x"},
			ir.Instr{Op: ir.OpReturnValue}),
		special("read", []ir.Type{ir.Ref("P")},
			ir.Instr{Op: ir.OpLoad, A: 0},
			ir.Instr{Op: ir.OpInvokeSpecial, Owner: "P", Member: "get_x"},
			ir.Instr{Op: ir.OpReturnValue}),
	}})
	return prog
}

// newX allocates an instance of class holding x, without a constructor.
func newX(t *testing.T, v *VM, class string, x int64) Value {
	t.Helper()
	obj, err := v.NewObject(class)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("x", IntV(x))
	return RefV(obj)
}

// TestAccessorSite: a call site runs a trivial accessor without
// activating it, and nothing shows: results, the step and depth budgets,
// every fault, and dispatch to overrides and morphed receivers are what
// an activation gives.
func TestAccessorSite(t *testing.T) {
	prog := accessorProgram(t)
	fault := func(t *testing.T, err error, want string) {
		t.Helper()
		var f *FaultError
		if !errors.As(err, &f) || f.Msg != want {
			t.Fatalf("want fault %q, got %v", want, err)
		}
	}
	for _, tc := range []struct {
		name string
		opts []Option
		run  func(t *testing.T, v *VM)
	}{
		{"getter and setter", nil, func(t *testing.T, v *VM) {
			p := newX(t, v, "P", 5)
			if got, err := v.Invoke("Loop", "bump", Value{}, []Value{p, IntV(1000)}); err != nil || got.I != 1005 {
				t.Fatalf("bump = %v %v, want 1005", got, err)
			}
			if got := p.O.Get("x").I; got != 1005 {
				t.Fatalf("field after bump: %d", got)
			}
		}},
		{"step budget", nil, func(t *testing.T, _ *VM) {
			// bump(p, 3) takes need steps; every smaller budget faults,
			// and it runs out inside an accessor once per accessor
			// instruction executed: 3 for each of the four get_x
			// calls, 4 for each of the three set_x calls.
			const n, need = 3, 78
			at := map[string]int{}
			for k := int64(1); ; k++ {
				v := MustNew(prog, WithMaxSteps(k))
				got, err := v.Invoke("Loop", "bump", Value{}, []Value{newX(t, v, "P", 0), IntV(n)})
				var f *FaultError
				if errors.As(err, &f) && strings.HasSuffix(f.Msg, ": step limit exceeded") && k < 2*need {
					at[f.Msg[:strings.Index(f.Msg, " pc=")]]++
					continue
				}
				if k != need || err != nil || got.I != n {
					t.Fatalf("budget %d: %v %v, want %d at budget %d and a step fault below", k, got, err, n, need)
				}
				break
			}
			if at["P.get_x"] != 3*(n+1) || at["P.set_x"] != 4*n {
				t.Fatalf("step faults by method: %v", at)
			}
		}},
		{"depth limit", []Option{WithMaxDepth(1)}, func(t *testing.T, v *VM) {
			_, err := v.Invoke("Loop", "read", Value{}, []Value{newX(t, v, "P", 1)})
			fault(t, err, "call depth limit exceeded")
		}},
		{"one below the depth limit", []Option{WithMaxDepth(2)}, func(t *testing.T, v *VM) {
			if got, err := v.Invoke("Loop", "read", Value{}, []Value{newX(t, v, "P", 1)}); err != nil || got.I != 1 {
				t.Fatalf("read = %v %v", got, err)
			}
		}},
		{"null receiver", nil, func(t *testing.T, v *VM) {
			_, err := v.Invoke("Loop", "read", Value{}, []Value{NullV()})
			var unc *UncaughtError
			if !errors.As(err, &unc) || unc.Class != stdlib.NullPointerClass || unc.Message != "invoke of P.get_x on null" {
				t.Fatalf("want NPE, got %v", err)
			}
		}},
		// Verification tracks kinds, not classes: an exact invoke of P's
		// accessors on an object of another class reaches their field
		// sites, which find no field x of P's kind on it.
		{"receiver without the field", nil, func(t *testing.T, v *VM) {
			loop, err := v.NewObject("Loop")
			if err != nil {
				t.Fatal(err)
			}
			_, err = v.Invoke("Special", "read", Value{}, []Value{RefV(loop)})
			fault(t, err, "P.get_x pc=1: no field x on Loop")
			_, err = v.Invoke("Special", "put", Value{}, []Value{RefV(loop), IntV(21)})
			fault(t, err, "P.set_x pc=2: no field x on Loop")
		}},
		{"receiver whose field is of another kind", nil, func(t *testing.T, v *VM) {
			k, err := v.NewObject("K")
			if err != nil {
				t.Fatal(err)
			}
			_, err = v.Invoke("Special", "read", Value{}, []Value{RefV(k)})
			fault(t, err, "P.get_x pc=1: no field x on K")
			_, err = v.Invoke("Special", "put", Value{}, []Value{RefV(k), IntV(21)})
			fault(t, err, "P.set_x pc=2: no field x on K")
			if k.Get("x") != StringV("") {
				t.Fatalf("K.x = %v after the refused store", k.Get("x"))
			}
		}},
		// A subclass field named like a superclass field is its slot
		// (see VM.fieldLayout): A's code, verified against A's A[] xs,
		// meets B's int[] xs, and its field site finds no field xs of
		// A's element type on B.
		{"subclass field of another element type", nil, func(t *testing.T, _ *VM) {
			v := compileVM(t, `
class A {
    A[] xs;
    int f() { return xs[0].g(); }
    int g() { return 1; }
}
class B extends A {
    int[] xs;
    B() { xs = new int[1]; }
}
class Main {
    static int run() { A a = new B(); return a.f(); }
}`)
			_, err := v.Invoke("Main", "run", Value{}, nil)
			fault(t, err, "A.f pc=1: no field xs on B")
		}},
		{"override that is no accessor", nil, func(t *testing.T, v *VM) {
			got, err := v.Invoke("Loop", "alternate", Value{}, []Value{newX(t, v, "P", 1), newX(t, v, "Q", 2)})
			if err != nil || got.I != 1_102_001_102 {
				t.Fatalf("alternate = %v %v, want 1102001102", got, err)
			}
		}},
		{"morph to a native accessor", nil, func(t *testing.T, v *VM) {
			v.RegisterClassNative("R", func(_ *Env, method string, recv Value, _ []Value) (Value, *Thrown, error) {
				return IntV(recv.O.Get("x").I + 1000), nil, nil
			})
			p := newX(t, v, "P", 4)
			read := func() int64 {
				got, err := v.Invoke("Loop", "read", Value{}, []Value{p})
				if err != nil {
					t.Fatal(err)
				}
				return got.I
			}
			if got := read(); got != 4 {
				t.Fatalf("before morph: %d", got)
			}
			if err := v.Morph(p.O, "R", map[string]Value{"x": IntV(4)}); err != nil {
				t.Fatal(err)
			}
			if got := read(); got != 1004 {
				t.Fatalf("after morph the site answered %d, want the native's 1004", got)
			}
		}},
		{"invokespecial", nil, func(t *testing.T, v *VM) {
			if got, err := v.Invoke("Special", "put", Value{}, []Value{newX(t, v, "P", 0), IntV(21)}); err != nil || got.I != 21 {
				t.Fatalf("put = %v %v", got, err)
			}
		}},
		{"invokespecial on an int", nil, func(t *testing.T, v *VM) {
			_, err := v.Invoke("Special", "onInt", Value{}, nil)
			fault(t, err, "link: Special.onInt pc=1: invokespecial of int, not ref")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, MustNew(prog, tc.opts...)) })
	}
}

// TestAccessorMarking: the link pass marks exactly the accessor shapes;
// near misses keep their activation.
func TestAccessorMarking(t *testing.T) {
	prog := accessorProgram(t)
	get, set := prog.Class("P").Method("get_x", 0), prog.Class("P").Method("set_x", 1)
	variant := func(m *ir.Method, edit func(*ir.Method)) *ir.Method {
		c := *m
		c.Code = append([]ir.Instr(nil), m.Code...)
		edit(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		m    *ir.Method
		want accessorKind
	}{
		{"getter", get, getter},
		{"setter", set, setter},
		{"override that adds", prog.Class("Q").Method("get_x", 0), notAccessor},
		{"native", prog.Class("R").Method("get_x", 0), notAccessor},
		{"static getter shape", variant(get, func(m *ir.Method) { m.Static = true }), notAccessor},
		{"getter with a handler", variant(get, func(m *ir.Method) {
			m.Handlers = []ir.TryHandler{{Start: 0, End: 2, Target: 2}}
		}), notAccessor},
		{"native with a getter body", variant(get, func(m *ir.Method) { m.Native = true }), notAccessor},
		{"setter storing its receiver", variant(set, func(m *ir.Method) { m.Code[1].A = 0 }), notAccessor},
		{"getter of another slot", variant(get, func(m *ir.Method) { m.Code[0].A = 1 }), notAccessor},
	} {
		if got := accessorOf(tc.m); got != tc.want {
			t.Errorf("%s: classified %d, want %d", tc.name, got, tc.want)
		}
	}
	v := MustNew(prog)
	if cl := v.linked("P"); cl.codes[get].accessor != getter || cl.codes[set].accessor != setter {
		t.Fatal("the link records of P's accessors are not marked")
	}
}

// TestAccessorSiteConcurrent: executions on two goroutines run accessors
// at their sites on objects of their own and on one they share (run it
// under -race).
func TestAccessorSiteConcurrent(t *testing.T) {
	v := MustNew(accessorProgram(t))
	shared := newX(t, v, "P", 0)
	const rounds, per = 50, 20
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		own := newX(t, v, "P", 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v.Exec(func(env *Env) {
					for _, p := range []Value{own, shared} {
						if _, thrown, err := env.Call("Loop", "bump", Value{}, []Value{p, IntV(per)}); thrown != nil || err != nil {
							t.Error(thrown, err)
						}
					}
				})
			}
			if got := own.O.Get("x").I; got != rounds*per {
				t.Errorf("own object counted %d, want %d", got, rounds*per)
			}
		}()
	}
	wg.Wait()
	// Increments of the shared object race (no gate is held), so some may
	// be lost; none may be invented.
	if got := shared.O.Get("x").I; got < 1 || got > 2*rounds*per {
		t.Fatalf("shared object counted %d", got)
	}
}

// TestSlabLimitFaults: depth and step limits keep their messages, and an
// execution that faulted leaves the VM usable.
func TestSlabLimitFaults(t *testing.T) {
	v := compileVM(t, `
class L {
    static int down(int n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
    static void spin() { while (true) {} }
}
class Main { static void main() {} }`, WithMaxDepth(50), WithMaxSteps(100_000))
	var fault *FaultError
	if _, err := v.Invoke("L", "down", Value{}, []Value{IntV(60)}); !errors.As(err, &fault) ||
		err.Error() != "vm fault: call depth limit exceeded" {
		t.Fatalf("depth fault: %v", err)
	}
	if got, err := v.Invoke("L", "down", Value{}, []Value{IntV(40)}); err != nil || got.I != 40 {
		t.Fatalf("after a depth fault: %v %v", got, err)
	}
	if _, err := v.Invoke("L", "spin", Value{}, nil); !errors.As(err, &fault) ||
		!strings.HasPrefix(fault.Msg, "L.spin pc=") || !strings.HasSuffix(fault.Msg, ": step limit exceeded") {
		t.Fatalf("step fault: %v", err)
	}
}

// TestSlabFrameBounds: frames are sized from the verified code, so
// hand-built code may use any slot below the verifier's limit and any
// stack depth up to its limit; code of any other shape is refused when
// first linked, with the verifier's message, and what the verifier does
// not check — operand kinds — faults when run, without touching another
// frame.
func TestSlabFrameBounds(t *testing.T) {
	run := func(code ...ir.Instr) (Value, error) {
		callee := staticMethod("f", ir.Int, nil, code)
		callee.MaxLocals = 0 // a lie the frame scan must not believe
		caller := staticMethod("g", ir.Int, nil, []ir.Instr{
			{Op: ir.OpConstInt, A: 11}, {Op: ir.OpStore, A: 0},
			{Op: ir.OpInvokeStatic, Owner: "T", Member: "f"},
			{Op: ir.OpLoad, A: 0}, {Op: ir.OpAdd}, {Op: ir.OpReturnValue},
		})
		return MustNew(buildClass(callee, caller)).Invoke("T", "g", Value{}, nil)
	}
	// deep pushes n constants 1 and returns the last.
	deep := func(n int) []ir.Instr {
		code := make([]ir.Instr, n+1)
		for i := range n {
			code[i] = ir.Instr{Op: ir.OpConstInt, A: 1}
		}
		code[n] = ir.Instr{Op: ir.OpReturnValue}
		return code
	}
	for _, tc := range []struct {
		what string
		want int64
		code []ir.Instr
	}{
		{"store to a slot beyond MaxLocals", 42, []ir.Instr{
			{Op: ir.OpConstInt, A: 31}, {Op: ir.OpStore, A: 9}, {Op: ir.OpLoad, A: 9}, {Op: ir.OpReturnValue},
		}},
		{"the last slot below the limit", 42, []ir.Instr{
			{Op: ir.OpConstInt, A: 31}, {Op: ir.OpStore, A: 1<<16 - 1}, {Op: ir.OpLoad, A: 1<<16 - 1}, {Op: ir.OpReturnValue},
		}},
		{"the deepest stack allowed", 12, deep(1 << 10)},
	} {
		if got, err := run(tc.code...); err != nil || got != IntV(tc.want) {
			t.Errorf("%s: %v %v, want %d", tc.what, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		want string
		code []ir.Instr
	}{
		{"link: T.f pc=0: load of negative slot -1", []ir.Instr{{Op: ir.OpLoad, A: -1}, {Op: ir.OpReturnValue}}},
		{"link: T.f pc=0: load of slot 65536 at or above 65536", []ir.Instr{{Op: ir.OpLoad, A: 1 << 16}, {Op: ir.OpReturnValue}}},
		{"link: T.f pc=1: store to slot 70000 at or above 65536", []ir.Instr{
			{Op: ir.OpConstInt}, {Op: ir.OpStore, A: 70000}, {Op: ir.OpConstInt}, {Op: ir.OpReturnValue},
		}},
		{"link: T.f pc=1: stack underflow: depth 1, need 2", []ir.Instr{{Op: ir.OpConstInt}, {Op: ir.OpSwap}, {Op: ir.OpReturnValue}}},
		{"link: T.f pc=1: stack underflow: depth 1, need 2", []ir.Instr{{Op: ir.OpConstInt}, {Op: ir.OpAdd}, {Op: ir.OpReturnValue}}},
		{"link: T.f pc=0: inconsistent stack depth at join: 0 vs 1", []ir.Instr{{Op: ir.OpConstInt, A: 1}, {Op: ir.OpJump, A: 0}}},
		{"link: T.f: stack depth 1025 above 1024", deep(1<<10 + 1)},
		{"link: T.f pc=1: arraylen of int, not array", []ir.Instr{{Op: ir.OpConstInt, A: 5}, {Op: ir.OpArrayLen}, {Op: ir.OpReturnValue}}},
		{"link: T.f pc=2: aload of int, not array", []ir.Instr{{Op: ir.OpConstInt, A: 5}, {Op: ir.OpConstInt}, {Op: ir.OpALoad}, {Op: ir.OpReturnValue}}},
		{"link: T.f pc=3: astore of ref, not array", []ir.Instr{
			{Op: ir.OpNew, Owner: "T"}, {Op: ir.OpConstInt}, {Op: ir.OpConstInt, A: 1}, {Op: ir.OpAStore},
			{Op: ir.OpConstInt}, {Op: ir.OpReturnValue},
		}},
	} {
		_, err := run(tc.code...)
		var fault *FaultError
		if !errors.As(err, &fault) || fault.Msg != tc.want {
			t.Errorf("want fault %q, got %v", tc.want, err)
		}
	}
}

// TestObjectFieldsByName pins the by-name Object API's contract: an
// object holds exactly the fields its class declares, so a write of any
// other name, or of a value that does not fit the field's type, is
// refused with the object unchanged; and Morph starts from the new
// class's zero values.
func TestObjectFieldsByName(t *testing.T) {
	v := compileVM(t, `
class Base { int a; }
class P extends Base { string s; Q q; int[] xs; int read() { return a; } }
class Q { int a; string t; int read() { return a; } }
class W { int a; void put(int n) { a = n; } }
class Caller { static void put(W w) { w.put(2); } }
class Main { static void main() {} }`)
	obj, err := v.NewObject("P")
	if err != nil {
		t.Fatal(err)
	}
	want := func(what string, o *Object, class string, n int) map[string]Value {
		t.Helper()
		cls, fields := o.View()
		if cls.Name != class || len(fields) != n {
			t.Fatalf("%s: %s %v, want a %s of %d fields", what, cls.Name, fields, class, n)
		}
		return fields
	}
	fields := want("fresh instance", obj, "P", 4)
	if fields["a"].K != ir.KindInt || fields["s"].K != ir.KindString || fields["q"] != NullV() || fields["xs"] != (Value{K: ir.KindArray}) {
		t.Fatalf("fresh instance holds %v, want its declared zero values", fields)
	}

	// A name the class does not declare is absent and cannot be written.
	if _, ok := obj.Field("__guid"); ok {
		t.Fatal("undeclared field present")
	}
	if obj.Set("__guid", StringV("n#1")) == nil {
		t.Fatal("Set of an undeclared field accepted")
	}
	if _, ok := obj.Field("__guid"); ok {
		t.Fatal("a refused Set left the field behind")
	}

	// A declared field takes a value of its kind — an array of its
	// element type — or null if it is a reference or array field, and
	// nothing else.
	for _, tc := range []struct {
		name string
		val  Value
		ok   bool
	}{
		{"a", IntV(5), true},
		{"a", StringV("5"), false},
		{"a", Value{}, false},
		{"s", StringV("hi"), true},
		{"s", NullV(), false},
		{"q", Value{K: ir.KindArray}, true},
		{"q", ArrayV(NewArray(ir.Int, 1)), false},
		{"xs", NullV(), true},
		{"xs", RefV(obj), false},
		{"xs", ArrayV(NewArray(ir.Int, 2)), true},
		{"xs", ArrayV(NewArray(ir.String, 2)), false},
	} {
		before := obj.Get(tc.name)
		if err := obj.Set(tc.name, tc.val); (err == nil) != tc.ok {
			t.Errorf("Set(%s, %v) = %v, want it to succeed: %v", tc.name, tc.val, err, tc.ok)
		}
		if after := obj.Get(tc.name); !tc.ok && after != before {
			t.Errorf("refused Set(%s, %v) changed the field to %v", tc.name, tc.val, after)
		}
	}

	// SetFields writes all of its fields or none.
	if err := obj.SetFields(map[string]Value{"a": IntV(6), "__endpoint": StringV("rrp://x")}); err == nil ||
		!strings.Contains(err.Error(), "no field __endpoint on P") {
		t.Fatalf("SetFields with an undeclared field: %v", err)
	}
	if err := obj.SetFields(map[string]Value{"a": IntV(6), "s": IntV(1)}); err == nil ||
		!strings.Contains(err.Error(), "field s of P holds string, not int") {
		t.Fatalf("SetFields with a value of the wrong kind: %v", err)
	}
	if obj.Get("a").I != 5 {
		t.Fatal("a refused SetFields wrote some of its fields")
	}
	if err := obj.SetFields(map[string]Value{"a": IntV(7), "s": StringV("ho")}); err != nil {
		t.Fatal(err)
	}
	var out [3]Value
	obj.ReadFields([]string{"a", "missing", "s"}, out[:])
	if out[0].I != 7 || out[1] != (Value{}) || out[2].S != "ho" {
		t.Fatalf("ReadFields: %v", out)
	}
	fields = want("View", obj, "P", 4)
	fields["a"] = IntV(99) // a copy: the object keeps its own
	if obj.Get("a").I != 7 {
		t.Fatal("View returned the live fields")
	}

	// Morph starts from the new class's zero values, and a key it does
	// not declare refuses the whole morph.
	epoch := obj.Epoch()
	for _, bad := range []map[string]Value{
		{"t": StringV("x"), "s": StringV("P's")},
		{"t": IntV(1)},
	} {
		if err := v.Morph(obj, "Q", bad); err == nil {
			t.Fatalf("Morph with %v accepted", bad)
		}
	}
	if obj.Epoch() != epoch || want("after refused morphs", obj, "P", 4)["a"].I != 7 {
		t.Fatal("a refused Morph changed the object")
	}
	if err := v.Morph(obj, "Q", map[string]Value{"t": StringV("x")}); err != nil {
		t.Fatal(err)
	}
	if fields := want("after Morph", obj, "Q", 2); fields["a"] != IntV(0) || fields["t"].S != "x" {
		t.Fatalf("after Morph: %v", fields)
	}
	if got, err := v.Invoke("Q", "read", RefV(obj), nil); err != nil || got.I != 0 {
		t.Fatalf("getfield of a field the morph zero-filled: %v %v", got, err)
	}
}

// TestSlabPerExecution: executions on different goroutines never share a
// slab, whether they overlap or follow one another through the pool.
func TestSlabPerExecution(t *testing.T) {
	v := compileVM(t, `
class R {
    int seed;
    int sum(int n) { if (n == 0) { return seed; } int keep = n; return sum(n - 1) + keep; }
}
class Main { static void main() {} }`)
	const workers = 2
	var inside sync.WaitGroup
	inside.Add(workers)
	slabs := make([]*Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obj, _ := v.NewObject("R")
			obj.Set("seed", IntV(int64(w)))
			for i := 0; i < 200; i++ {
				v.ExecOn(obj, func(env *Env) {
					if got := mustCall(t, env, "R", "sum", RefV(obj), IntV(100)); got.I != 5050+int64(w) {
						t.Errorf("worker %d: sum = %d", w, got.I)
					}
					if i == 0 {
						// Both executions are in flight here.
						slabs[w] = &env.slab[0]
						inside.Done()
						inside.Wait()
					}
				})
			}
		}(w)
	}
	wg.Wait()
	if slabs[0] == slabs[1] {
		t.Fatal("two concurrent executions ran on one slab")
	}
}
