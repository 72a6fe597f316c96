package vm

import (
	"strings"
	"sync"
	"testing"

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
// The class is initialised first: a toucher racing the first one
// proceeds without waiting and can find the slots not yet made (see
// VM.initClass), which is not what this test is about.
func TestStaticsConcurrentWithHost(t *testing.T) {
	v := compileVM(t, staticsSource)
	if _, err := v.GetStatic("K", "n"); err != nil {
		t.Fatal(err)
	}
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

// TestStaticSiteFaults pins what a static site reports for a field that
// is no static of the class, and for a class whose superclass failed to
// initialise: it has no slots, so its statics fault rather than read as
// phantom zero values.
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
		{"child", "vm fault: field Child.n is not static"},
		{"inst", "vm fault: field K.inst is not static"},
		{"put", "vm fault: field K.inst is not static"},
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
