package vm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

// cellProgram builds a class with an int field and a read-modify-write
// bump method — the canonical lost-update probe.
func cellProgram() *ir.Program {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "Cell", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "n", Type: ir.Int}},
		Methods: []*ir.Method{
			{Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic, MaxLocals: 1,
				Code: []ir.Instr{{Op: ir.OpReturn}}},
			{Name: "bump", Return: ir.Int, Access: ir.AccessPublic, MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpGetField, Owner: "Cell", Member: "n"},
					{Op: ir.OpConstInt, A: 1},
					{Op: ir.OpAdd},
					{Op: ir.OpPutField, Owner: "Cell", Member: "n"},
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpGetField, Owner: "Cell", Member: "n"},
					{Op: ir.OpReturnValue},
				}},
		},
	})
	return p
}

// TestExecOnSerialisesPerObject: gated executions of ONE object are a
// monitor — concurrent bumps must not lose updates.
func TestExecOnSerialisesPerObject(t *testing.T) {
	v := MustNew(cellProgram())
	obj, err := v.NewObject("Cell")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.ExecOn(obj, func(env *Env) {
					if _, thrown, err := env.Call("Cell", "bump", RefV(obj), nil); thrown != nil || err != nil {
						t.Errorf("bump: %v %v", thrown, err)
					}
				})
			}
		}()
	}
	wg.Wait()
	if got := obj.Get("n"); got.I != workers*per {
		t.Fatalf("lost updates: %d want %d", got.I, workers*per)
	}
}

// TestExecOnDistinctObjectsRunConcurrently: the gate of one object must
// not block executions entered through another.  A gated execution on
// obj1 blocks until a gated execution on obj2 has run — if the gates
// were one global lock this would deadlock.
func TestExecOnDistinctObjectsRunConcurrently(t *testing.T) {
	v := MustNew(cellProgram())
	obj1, _ := v.NewObject("Cell")
	obj2, _ := v.NewObject("Cell")

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		v.ExecOn(obj1, func(env *Env) {
			close(started)
			<-release // hold obj1's gate until obj2's execution finishes
		})
		close(done)
	}()
	<-started
	// Must complete while obj1's gate is held.
	v.ExecOn(obj2, func(env *Env) {
		if _, thrown, err := env.Call("Cell", "bump", RefV(obj2), nil); thrown != nil || err != nil {
			t.Errorf("bump: %v %v", thrown, err)
		}
	})
	close(release)
	<-done
	if got := obj2.Get("n"); got.I != 1 {
		t.Fatalf("obj2 bump lost: %d", got.I)
	}
}

// TestCallGatedReentrant: an execution that already holds an object's
// gate may CallGated the same object again without deadlocking.
func TestCallGatedReentrant(t *testing.T) {
	v := MustNew(cellProgram())
	obj, _ := v.NewObject("Cell")
	v.ExecOn(obj, func(env *Env) {
		if _, thrown, err := env.CallGated(obj, "bump", nil); thrown != nil || err != nil {
			t.Fatalf("re-entrant gated call: %v %v", thrown, err)
		}
	})
	if got := obj.Get("n"); got.I != 1 {
		t.Fatalf("bump lost: %d", got.I)
	}
}

// TestRunUnlockedReleasesGate: a native blocking via RunUnlocked lets
// another goroutine's gated invocation of the SAME object proceed — the
// mechanism that keeps re-entrant remote callbacks deadlock-free.
func TestRunUnlockedReleasesGate(t *testing.T) {
	p := cellProgram()
	p.MustAdd(&ir.Class{
		Name: "Blocker", Super: ir.ObjectClass,
		Methods: []*ir.Method{
			{Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic, MaxLocals: 1,
				Code: []ir.Instr{{Op: ir.OpReturn}}},
			{Name: "wait", Return: ir.Void, Access: ir.AccessPublic, Native: true},
		},
	})
	v := MustNew(p)
	obj, _ := v.NewObject("Blocker")
	blocking := make(chan struct{})
	unblock := make(chan struct{})
	v.RegisterNative("Blocker", "wait", 0, func(env *Env, _ Value, _ []Value) (Value, *Thrown, error) {
		env.RunUnlocked(func() {
			close(blocking)
			<-unblock
		})
		return Value{}, nil, nil
	})

	done := make(chan struct{})
	go func() {
		v.ExecOn(obj, func(env *Env) {
			_, _, _ = env.Call("Blocker", "wait", RefV(obj), nil)
		})
		close(done)
	}()
	<-blocking
	// The first execution is parked inside RunUnlocked; its gate must be
	// free for us.
	entered := make(chan struct{})
	go func() {
		v.ExecOn(obj, func(env *Env) { close(entered) })
	}()
	<-entered
	close(unblock)
	<-done
}

// TestInvokeSameObjectLosesNoUpdates: host-entered calls take the
// receiver's gate, so bumps of ONE object through VM.Invoke, through
// ExecOn, or through both at once are a monitor.
func TestInvokeSameObjectLosesNoUpdates(t *testing.T) {
	v := MustNew(cellProgram())
	obj, err := v.NewObject("Cell")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(gated bool) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if gated {
					v.ExecOn(obj, func(env *Env) {
						if _, thrown, err := env.Call("Cell", "bump", RefV(obj), nil); thrown != nil || err != nil {
							t.Errorf("bump: %v %v", thrown, err)
						}
					})
				} else if _, err := v.Invoke("Cell", "bump", RefV(obj), nil); err != nil {
					t.Errorf("bump: %v", err)
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
	if got := obj.Get("n"); got.I != workers*per {
		t.Fatalf("lost updates: %d want %d", got.I, workers*per)
	}
}

// TestInvokeDistinctObjectsOverlap: host-entered calls on different
// objects share no lock.  Each call blocks in a native (gate held, not
// parked) until every other one has arrived; if VM.Invoke serialised them
// the barrier would never fill.
func TestInvokeDistinctObjectsOverlap(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "Blocker", Super: ir.ObjectClass,
		Methods: []*ir.Method{{Name: "wait", Return: ir.Void, Access: ir.AccessPublic, Native: true}},
	})
	v := MustNew(p)
	const callers = 4
	var arrived sync.WaitGroup
	arrived.Add(callers)
	v.RegisterNative("Blocker", "wait", 0, func(*Env, Value, []Value) (Value, *Thrown, error) {
		arrived.Done()
		arrived.Wait()
		return Value{}, nil, nil
	})
	done := make(chan error, callers)
	for i := 0; i < callers; i++ {
		obj, err := v.NewObject("Blocker")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := v.Invoke("Blocker", "wait", RefV(obj), nil)
			done <- err
		}()
	}
	for i := 0; i < callers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("host-entered calls on distinct objects did not overlap")
		}
	}
}

// TestInvokeSerialisesWithExecOn: a host-entered call and a gated
// execution of the same object exclude each other.
func TestInvokeSerialisesWithExecOn(t *testing.T) {
	v := MustNew(cellProgram())
	obj, _ := v.NewObject("Cell")
	done := make(chan error, 1)
	v.ExecOn(obj, func(*Env) {
		go func() {
			_, err := v.Invoke("Cell", "bump", RefV(obj), nil)
			done <- err
		}()
		select {
		case <-done:
			t.Error("VM.Invoke ran inside another execution's gate")
		case <-time.After(20 * time.Millisecond):
		}
	})
	if !t.Failed() {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := obj.Get("n"); got.I != 1 {
		t.Fatalf("bump lost: %d", got.I)
	}
}

// TestInvokeResolvesInClassDispatchesOnReceiver pins VM.Invoke's naming
// contract: the method must exist in the named class; a static one runs
// whatever receiver it is handed; an instance one dispatches on the
// receiver's own class, as invokevirtual does.
func TestInvokeResolvesInClassDispatchesOnReceiver(t *testing.T) {
	tag := func(name string, static bool, n int64) *ir.Method {
		return &ir.Method{Name: name, Return: ir.Int, Static: static, Access: ir.AccessPublic, MaxLocals: 1,
			Code: []ir.Instr{{Op: ir.OpConstInt, A: n}, {Op: ir.OpReturnValue}}}
	}
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "Base", Super: ir.ObjectClass,
		Methods: []*ir.Method{tag("tag", false, 1), tag("kind", true, 10)}})
	p.MustAdd(&ir.Class{Name: "Derived", Super: "Base",
		Methods: []*ir.Method{tag("tag", false, 2), tag("extra", false, 3)}})
	v := MustNew(p)
	obj, err := v.NewObject("Derived")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.Invoke("Base", "tag", RefV(obj), nil); err != nil || got.I != 2 {
		t.Fatalf("instance method named via the superclass: %v %v, want the receiver's override", got, err)
	}
	if got, err := v.Invoke("Derived", "kind", RefV(obj), nil); err != nil || got.I != 10 {
		t.Fatalf("static method with an object receiver: %v %v", got, err)
	}
	if _, err := v.Invoke("Base", "extra", RefV(obj), nil); err == nil {
		t.Fatal("a method the named class lacks was found on the receiver")
	}
}

// TestStepLimitPerExecution: the step budget bounds one execution, not the
// VM's lifetime — a long-lived VM serves any number of short calls, while
// a spinning one still faults.
func TestStepLimitPerExecution(t *testing.T) {
	p := cellProgram()
	p.MustAdd(&ir.Class{
		Name: "Spin", Super: ir.ObjectClass,
		Methods: []*ir.Method{{Name: "spin", Return: ir.Void, Static: true, Access: ir.AccessPublic,
			Code: []ir.Instr{{Op: ir.OpJump, A: 0}}}},
	})
	v := MustNew(p, WithMaxSteps(500))
	obj, err := v.NewObject("Cell")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := v.Invoke("Cell", "bump", RefV(obj), nil); err != nil {
			t.Fatalf("short call %d charged for its predecessors: %v", i, err)
		}
	}
	if _, err := v.Invoke("Spin", "spin", Value{}, nil); err == nil || !strings.Contains(err.Error(), "step limit exceeded") {
		t.Fatalf("spinning execution: %v", err)
	}
}

// TestFailedSuperInitLeavesNoPhantomStatics: when a superclass clinit
// throws, later static reads of the subclass must keep faulting rather
// than silently returning zero values (seed behaviour).
func TestFailedSuperInitLeavesNoPhantomStatics(t *testing.T) {
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
	p.MustAdd(&ir.Class{
		Name: "Child", Super: "Boom",
		Fields: []ir.Field{{Name: "n", Type: ir.Int, Static: true}},
	})
	v := MustNew(p)
	if _, err := v.GetStatic("Child", "n"); err == nil {
		t.Fatal("first read after failed super init succeeded")
	}
	// The failure must stay observable: no phantom zero-valued slot.
	if _, err := v.GetStatic("Child", "n"); err == nil {
		t.Fatal("later read after failed super init returned a phantom value")
	}
}

// TestRegistrationAfterBootVisible: a call that found no native binds
// nothing, so a native registered after it is seen by the next call.
func TestRegistrationAfterBootVisible(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{
		Name: "N", Super: ir.ObjectClass,
		Methods: []*ir.Method{
			{Name: "f", Return: ir.Int, Static: true, Native: true, Access: ir.AccessPublic},
		},
	})
	v := MustNew(p)
	if _, err := v.Invoke("N", "f", Value{}, nil); err == nil {
		t.Fatal("unbound native accepted")
	}
	v.RegisterNative("N", "f", 0, func(env *Env, _ Value, _ []Value) (Value, *Thrown, error) {
		return IntV(7), nil, nil
	})
	if got, err := v.Invoke("N", "f", Value{}, nil); err != nil || got.I != 7 {
		t.Fatalf("late-registered native: %v %v", got, err)
	}
}
