package vm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

const staticsSource = `
class K {
    static int n;
    static int h;
    static int bump() { n = n + 1; return n; }
    static int echo() { return h; }
}
class Main { static void main() {} }`

// TestStaticsConcurrentWithHost: executions running getstatic/putstatic
// on their own (no monitor gate) and the host's GetStatic/SetStatic all
// reach the statics through the class monitor's state lock, so none of
// them races another (run under -race) and every read is a whole int.
func TestStaticsConcurrentWithHost(t *testing.T) {
	v := compileVM(t, staticsSource)
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v.Exec(func(env *Env) {
					if got := mustCall(t, env, "K", "bump", Value{}); got.K != ir.KindInt || got.I < 1 {
						t.Errorf("bump = %v", got)
					}
					if got := mustCall(t, env, "K", "echo", Value{}); got.K != ir.KindInt || got.I < 0 || got.I >= rounds {
						t.Errorf("echo = %v", got)
					}
				})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := v.SetStatic("K", "h", IntV(int64(i))); err != nil {
				t.Error(err)
			}
			if got, err := v.GetStatic("K", "n"); err != nil || got.K != ir.KindInt {
				t.Errorf("GetStatic(n) = %v %v", got, err)
			}
			if err := v.SetStatic("K", "n", StringV("x")); err == nil {
				t.Error("SetStatic of a string into an int static accepted")
			}
		}
	}()
	wg.Wait()
	if got, err := v.GetStatic("K", "h"); err != nil || got.I != rounds-1 {
		t.Fatalf("h = %v %v, want the host's last write %d", got, err, rounds-1)
	}
	if got, err := v.GetStatic("K", "n"); err != nil || got.I < 1 || got.I > workers*rounds {
		t.Fatalf("n = %v %v after %d bumps", got, err, workers*rounds)
	}
}

// TestFirstTouchWaitsForInit: four executions and the host race the
// first touch of a class whose initialiser sleeps before it sets the
// statics.  One of them runs the initialiser; every other waits until it
// has finished, so none faults on slots not yet made and every one reads
// the initialised values.
func TestFirstTouchWaitsForInit(t *testing.T) {
	v := compileVM(t, `
class K {
    static int inits = 0;
    static int a = K.boot();
    static int b = 9;
    static int boot() { sys.Clock.sleepMicros(20000); inits = inits + 1; return 7; }
    static int sum() { return a + b; }
}
class Main { static void main() {} }`)
	const workers = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v.Exec(func(env *Env) {
				got, thrown, err := env.Call("K", "sum", Value{}, nil)
				if err != nil || thrown != nil || got.I != 16 {
					t.Errorf("K.sum() = %v, %v, %v; want 16", got, thrown, err)
				}
			})
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if got, err := v.GetStatic("K", "b"); err != nil || got.I != 9 {
			t.Errorf("GetStatic(K.b) = %v, %v; want 9", got, err)
		}
	}()
	close(start)
	wg.Wait()
	if got, err := v.GetStatic("K", "inits"); err != nil || got.I != 1 {
		t.Fatalf("initialiser ran %v times (%v), want 1", got.I, err)
	}
}

// TestCyclicInitAcrossExecutions: two executions each initialising a
// class whose initialiser reads the other's.  Each sleeps inside its
// initialiser first, so both initialisations are in progress when either
// touches the other's class.  One of them must be let through to the
// half-initialised class, as the JVM lets a thread through inside its own
// initialisation cycle, or both wait for ever.
func TestCyclicInitAcrossExecutions(t *testing.T) {
	v := compileVM(t, `
class X {
    static int v = X.boot();
    static int boot() { sys.Clock.sleepMicros(5000); return Y.get() + 1; }
    static int get() { return v; }
}
class Y {
    static int v = Y.boot();
    static int boot() { sys.Clock.sleepMicros(5000); return X.get() + 1; }
    static int get() { return v; }
}
class Main { static void main() {} }`)
	got := make(chan int64, 2)
	for _, class := range []string{"X", "Y"} {
		go func() {
			v.Exec(func(env *Env) {
				res, thrown, err := env.Call(class, "get", Value{}, nil)
				if err != nil || thrown != nil {
					t.Errorf("%s.get: %v %v", class, thrown, err)
				}
				got <- res.I
			})
		}()
	}
	var sum int64
	for i := 0; i < 2; i++ {
		select {
		case v := <-got:
			sum += v
		case <-time.After(10 * time.Second):
			t.Fatal("cross-referencing static initialisers deadlocked")
		}
	}
	// Whichever execution was let through saw the other's v as 0.
	if sum != 3 {
		t.Fatalf("X.v + Y.v = %d, want 3 (one initialiser saw 0, the other 1)", sum)
	}
}

// TestStaticSiteAllocs: a warm getstatic and putstatic allocate nothing.
func TestStaticSiteAllocs(t *testing.T) {
	v := compileVM(t, staticsSource)
	bump := func() {
		if _, err := v.Invoke("K", "bump", Value{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	bump()
	if n := testing.AllocsPerRun(1000, bump); n != 0 {
		t.Fatalf("a static bump allocates %.1f times, want 0", n)
	}
	if got, _ := v.GetStatic("K", "n"); got.I != 1002 {
		t.Fatalf("n = %v after 1002 bumps", got)
	}
}

// TestStaticSiteFaults pins what a static site reports for a class whose
// superclass failed to initialise — it has no slots, so its statics fault
// rather than read as phantom zero values — and that a method naming a
// field that is no static of the class is refused when first linked.
func TestStaticSiteFaults(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "Boom", Super: ir.ObjectClass,
		Methods: []*ir.Method{
			{Name: ir.StaticInitName, Return: ir.Void, Static: true, MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpNew, Owner: stdlib.RuntimeExceptionClass},
					{Op: ir.OpDup},
					{Op: ir.OpConstString, Str: "boom"},
					{Op: ir.OpInvokeSpecial, Owner: stdlib.RuntimeExceptionClass, Member: ir.ConstructorName, NArgs: 1},
					{Op: ir.OpThrow},
				}},
		},
	})
	static := func(name string, code ...ir.Instr) *ir.Method {
		return &ir.Method{Name: name, Return: ir.Int, Static: true, Access: ir.AccessPublic, MaxLocals: 1, Code: code}
	}
	p.MustAdd(&ir.Class{
		Name: "Child", Super: "Boom",
		Fields: []ir.Field{{Name: "n", Type: ir.Int, Static: true}, {Name: "inst", Type: ir.Int}},
	})
	p.MustAdd(&ir.Class{
		Name: "Reader", Super: ir.ObjectClass,
		Methods: []*ir.Method{
			static("child", ir.Instr{Op: ir.OpGetStatic, Owner: "Child", Member: "n"}, ir.Instr{Op: ir.OpReturnValue}),
			static("inst", ir.Instr{Op: ir.OpGetStatic, Owner: "K", Member: "inst"}, ir.Instr{Op: ir.OpReturnValue}),
			static("put", ir.Instr{Op: ir.OpConstInt, A: 1}, ir.Instr{Op: ir.OpPutStatic, Owner: "K", Member: "inst"},
				ir.Instr{Op: ir.OpConstInt}, ir.Instr{Op: ir.OpReturnValue}),
		},
	})
	p.MustAdd(&ir.Class{
		Name: "K", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "inst", Type: ir.Int}},
	})
	v := MustNew(p)
	for _, tc := range []struct{ method, want string }{
		{"child", "uncaught sys.RuntimeException: boom"},
		{"child", "vm fault: no static field Child.n"},
		{"inst", "vm fault: link: Reader.inst pc=0: unresolved static field K.inst"},
		{"put", "vm fault: link: Reader.put pc=1: unresolved static field K.inst"},
	} {
		if _, err := v.Invoke("Reader", tc.method, Value{}, nil); err == nil || err.Error() != tc.want {
			t.Errorf("Reader.%s: %v, want %q", tc.method, err, tc.want)
		}
	}
	for _, f := range []string{"n", "inst"} {
		if _, err := v.GetStatic("Child", f); err == nil || !strings.Contains(err.Error(), "no static field Child."+f) {
			t.Errorf("GetStatic(Child.%s): %v", f, err)
		}
	}
}
