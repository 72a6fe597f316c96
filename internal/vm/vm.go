// Package vm implements the bytecode interpreter for the IR: heap objects,
// virtual/interface/static dispatch, static initialisation, exceptions,
// arrays and native methods.  It is the execution substrate standing in
// for the JVM in the reproduction.
//
// # Thread safety
//
// A VM may be driven from any number of goroutines; there is no global
// interpreter lock.  The concurrency contract (docs/CONCURRENCY.md spells
// it out in full) is:
//
//   - The program is fixed when the VM is built: nothing adds, removes or
//     edits a class afterwards, so what the interpreter resolves against
//     it (link.go) stays right for the VM's lifetime and is read without
//     locks.  RegisterNative / RegisterClassNative write plain tables
//     under a mutex and are expected at boot, before traffic; a native
//     method looks them up on its first successful call and keeps that
//     binding, so registering it again later changes nothing.
//   - Every heap Object has its own state lock (field reads/writes
//     and morphs are individually atomic; the lock lives in a side
//     record the object gets on first need) and an invocation gate that
//     callers acquire via ExecOn to serialise whole invocations — and
//     migrations — per object.  Executions entered through different
//     objects run in parallel.
//   - Static fields are the slots of their class's monitor, an Object
//     like any other, so each static access is atomic under the
//     monitor's state lock.  <clinit> runs once, as the JVM runs it
//     (VM.initClass): the first toucher initialises the class and
//     re-enters freely, every other execution waits until it has
//     finished, and a wait that would close a cycle among executions is
//     let through to the half-initialised class.
//   - There is one execution regime.  Exec opens an ungated scope and
//     ExecOn one that holds an object's gate; the host entry points
//     (Invoke, Construct, RunMain, GetStatic, SetStatic) are those two.
//     Invoke enters under a monitor: an instance method takes its
//     receiver's gate through Env.CallGated exactly as a dispatched call
//     does, a static method its declaring class's monitor.
package vm

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

// Limits bound runaway programs in tests and experiments.
const (
	DefaultMaxSteps = int64(200_000_000)
	DefaultMaxDepth = 1024
)

// FaultError reports a VM-level fault: code the verifier refused, a
// value from outside of a kind other than the one declared, a receiver
// without the field or method a site names, unknown classes, step or
// depth limits.  Distinct from program-level thrown exceptions.
type FaultError struct {
	Msg string
}

func (e *FaultError) Error() string { return "vm fault: " + e.Msg }

// UncaughtError reports a program exception that escaped the entry method.
type UncaughtError struct {
	Class   string
	Message string
}

func (e *UncaughtError) Error() string {
	return fmt.Sprintf("uncaught %s: %s", e.Class, e.Message)
}

// Thrown carries an in-flight program exception between frames.
type Thrown struct {
	Obj *Object
}

// Env is one execution of the VM: the context threaded through every
// frame of one entry-point activation, and the capability handed to
// native methods.  It carries the per-execution interpreter state (call
// depth, step count) and records which gates the execution holds so that
// RunUnlocked can release them around blocking I/O.
//
// An Env is confined to its execution: never retain one beyond the call
// that delivered it, and never share one between goroutines.
type Env struct {
	// Envs are pooled and so long-lived, and the interpreter writes
	// steps on every instruction and depth/sp on every call: an Env that
	// shares a cache line with another goroutine's halves the speed of
	// both for as long as they live (measured: two callers on two cores
	// ran 20k or 43k steps/s depending on where the allocator put them).
	// A line of padding at each end keeps every field on lines the Env
	// owns.
	_ [64]byte

	vm    *VM
	depth int
	steps int64 // instructions this execution has run, against vm.maxSteps

	// slab is the execution's frame storage.  A frame is the window
	// [base, base+size) of it — locals, then operand stack — and a
	// callee's window starts at its arguments on the caller's operand
	// stack, so calling copies nothing; a callee's result comes back in
	// the first slot of its window, where the caller's push would put
	// it, so returning copies nothing either.  sp is the first index above
	// every live frame: where a by-name entry (Env.Call from a native, a
	// static initialiser) places its arguments.  hi is the highest index
	// any frame has covered, i.e. what to wipe before the Env is reused.
	//
	// The slab moves when it grows, so nothing holds a sub-slice of it
	// across a call: frames re-derive their window from base, and the
	// args view a native receives stays readable (the old backing array
	// is intact) but is only guaranteed for the duration of that call.
	// A panic unwinding through frames (MigrationInterrupt) skips their
	// exits; the frame that recovers restores depth and sp to what it
	// recorded on entry.
	slab []Value
	sp   int
	hi   int

	gates []gateRef // invocation gates held, in acquisition order

	// initWait is the class whose initialisation this execution waits
	// for another to finish (nil when none), guarded by VM.initMu.
	initWait *classState

	// forward is one-shot baggage for the node runtime: when an inbound
	// invocation's target turns out to be a forwarding proxy, the
	// dispatcher deposits the inbound request here and the proxy native
	// consumes it, so the forwarded request continues the original call
	// (its token, its priority) — the new home recognises a retry of
	// work the old home already completed (docs/CONCURRENCY.md §8).
	// Typed any to keep the vm layer free of wire types.
	forward any

	// traceID/spanID are the causal span context of this execution: the
	// dispatcher deposits the server span's ids here and every nested
	// proxy call the execution makes reads them, so remote sends parent
	// to the span that caused them and the cross-node call tree stays
	// connected (forwarded retries, migration re-sends, replica
	// fan-outs).  Unlike forward they are not one-shot — all of an
	// execution's outbound calls share the same parent.  Stored as two
	// bare words rather than a boxed struct: depositing them is on the
	// traced dispatch hot path and must not allocate (the ids keep the
	// vm layer free of trace types just as well as an any would).
	traceID uint64
	spanID  uint64

	// deadlineUs is the execution's remaining latency budget in
	// microseconds (zero: none).  The dispatcher deposits the inbound
	// call's budget — already charged for queue/gate wait — and nested
	// proxy calls read it to stamp their outbound requests, so a
	// deadline propagates down a forwarding or fan-out chain.  Same
	// bare-word, non-one-shot discipline as the trace context above.
	deadlineUs uint64

	_ [64]byte
}

// SetForward deposits one-shot forwarding baggage (see Env.forward).
func (e *Env) SetForward(v any) { e.forward = v }

// TakeForward consumes the forwarding baggage, returning nil when none
// was deposited (or it was already taken).
func (e *Env) TakeForward() any {
	v := e.forward
	e.forward = nil
	return v
}

// SetTraceCtx deposits the execution's span context (see
// Env.traceID/spanID).
func (e *Env) SetTraceCtx(traceID, spanID uint64) {
	e.traceID, e.spanID = traceID, spanID
}

// TraceCtx reads the execution's span context; zero when the execution
// was not started by a traced dispatch.
func (e *Env) TraceCtx() (traceID, spanID uint64) { return e.traceID, e.spanID }

// SetDeadlineUs deposits the execution's remaining latency budget (see
// Env.deadlineUs).
func (e *Env) SetDeadlineUs(us uint64) { e.deadlineUs = us }

// DeadlineUs reads the execution's remaining latency budget; zero when
// the inbound call carried no deadline.
func (e *Env) DeadlineUs() uint64 { return e.deadlineUs }

// gateRef is one held invocation gate plus the object's epoch at
// acquisition, so RunUnlocked can detect a morph that landed while the
// execution was parked with the gate released.
type gateRef struct {
	obj   *Object
	epoch uint64
}

// MigrationInterrupt aborts an invocation whose gated target was
// migrated away while the invocation was parked in RunUnlocked (blocked
// on its own nested remote call, gate released).  The interpreted frames
// above the park point hold a view of an object that no longer exists —
// resuming them would fault on morphed fields, as the seed did — so the
// execution unwinds by panic to the frame that acquired the gate
// (Env.CallGated, or the node runtime's dispatch/CallOn entry), which
// retries the whole invocation against the object's new class: the
// morphed proxy forwards it to the object's new home.
//
// Retry semantics: the retried invocation reuses the original call's
// dedup token (the node runtime forwards it via Env.SetForward), so if
// the old home had already completed the call its shipped window entry
// replays at the new home instead of re-executing.  A genuinely
// interrupted method — parked mid-body past the migration's bounded
// park-drain — re-executes from the top, re-running its pre-park prefix;
// the drain makes this the bounded exception rather than the rule
// (docs/CONCURRENCY.md §8).
type MigrationInterrupt struct {
	Obj *Object
}

func (m *MigrationInterrupt) Error() string {
	return "invocation target migrated while the call was parked"
}

// MaxMigrationRetries bounds how many consecutive mid-call migrations of
// one target an invocation chases before giving up.  Shared by every
// interrupt-retry site (CallGated here, dispatch and CallOn in the node
// runtime).
const MaxMigrationRetries = 8

// VM returns the owning VM.
func (e *Env) VM() *VM { return e.vm }

// Call invokes a method within the current execution.
func (e *Env) Call(class, method string, recv Value, args []Value) (Value, *Thrown, error) {
	return e.vm.call(e, class, method, recv, args)
}

// CallGated invokes method on obj while holding obj's invocation gate,
// serialising against other gated invocations of — and migrations of —
// the same object.  If this execution already holds the gate the call
// proceeds re-entrantly.  The node runtime uses it when a proxy collapses
// to a direct local call, and VM.Invoke for a host-entered one, so a call
// keeps monitor semantics no matter where it entered from.  Gate
// acquisition follows monitor rules: programs that nest gated calls in
// conflicting orders can deadlock, as Java monitors can.
func (e *Env) CallGated(obj *Object, method string, args []Value) (Value, *Thrown, error) {
	if obj == nil {
		return Value{}, nil, &FaultError{Msg: "gated call on nil object"}
	}
	if e.holdsGate(obj) {
		return e.vm.callOn(e, obj, method, args)
	}
	for attempt := 0; ; attempt++ {
		res, thrown, err, interrupted := e.callGatedOnce(obj, method, args)
		if !interrupted {
			return res, thrown, err
		}
		if attempt >= MaxMigrationRetries {
			return Value{}, nil, &FaultError{Msg: fmt.Sprintf(
				"invocation of %s abandoned: target migrated %d times mid-call", method, attempt+1)}
		}
		// The target morphed into a proxy while this call was parked in
		// a nested remote call; re-dispatch through its new class.
	}
}

// callGatedOnce performs one gated invocation attempt, converting a
// MigrationInterrupt for obj into the interrupted flag (interrupts for
// other objects keep unwinding to the frame that holds their gate).
func (e *Env) callGatedOnce(obj *Object, method string, args []Value) (res Value, thrown *Thrown, err error, interrupted bool) {
	depth, sp := e.depth, e.sp
	defer func() {
		if r := recover(); r != nil {
			if mi, ok := r.(*MigrationInterrupt); ok && mi.Obj == obj {
				e.depth, e.sp = depth, sp
				interrupted = true
				return
			}
			panic(r)
		}
	}()
	obj.gate.Lock()
	e.gates = append(e.gates, gateRef{obj: obj, epoch: obj.Epoch()})
	defer func() {
		e.gates = e.gates[:len(e.gates)-1]
		obj.gate.Unlock()
	}()
	res, thrown, err = e.vm.callOn(e, obj, method, args)
	return res, thrown, err, false
}

func (e *Env) holdsGate(obj *Object) bool {
	for _, g := range e.gates {
		if g.obj == obj {
			return true
		}
	}
	return false
}

// New allocates an uninitialised instance of the named class.
func (e *Env) New(class string) (*Object, error) { return e.vm.NewObject(class) }

// Construct allocates and runs the matching constructor.
func (e *Env) Construct(class string, args []Value) (Value, *Thrown, error) {
	return e.vm.construct(e, e.vm.linked(class), class, args)
}

// ConstructRef is Construct of the class r names, without looking it up.
func (e *Env) ConstructRef(r *ClassRef, args []Value) (Value, *Thrown, error) {
	return e.vm.construct(e, r.link(), r.name, args)
}

// Throw builds a Thrown of the given system exception class.
func (e *Env) Throw(class, msg string) *Thrown { return e.vm.throwSys(class, msg) }

// RunUnlocked releases every invocation gate this execution holds around
// f, then re-acquires them in acquisition order.  Native methods
// that perform blocking I/O (remote proxy calls) must use it so that
// incoming remote invocations — including re-entrant callbacks targeting
// the same object — can proceed meanwhile.
//
// On re-acquisition every held gate's object epoch is compared with the
// epoch recorded at acquisition: a mismatch means the object was
// migrated (morphed) while this execution was parked, and the execution
// unwinds with a MigrationInterrupt for the outermost moved object
// rather than resuming bytecode against a class that no longer matches
// the frames' view.
func (e *Env) RunUnlocked(f func()) {
	for i := len(e.gates) - 1; i >= 0; i-- {
		e.gates[i].obj.side().parked.Add(1)
		e.gates[i].obj.gate.Unlock()
	}
	depth, sp := e.depth, e.sp
	completed := false
	defer func() {
		// Whether f returned or panicked out of a nested execution, the
		// parked frame resumes (or is interrupted) where it parked.
		e.depth, e.sp = depth, sp
		for _, g := range e.gates {
			g.obj.gate.Lock()
			g.obj.side().parked.Add(-1)
		}
		if !completed {
			return // f panicked; don't replace its panic
		}
		for _, g := range e.gates {
			if g.obj.Epoch() != g.epoch {
				panic(&MigrationInterrupt{Obj: g.obj})
			}
		}
	}()
	f()
	completed = true
}

// NativeFunc implements one native method.
type NativeFunc func(env *Env, recv Value, args []Value) (Value, *Thrown, error)

// ClassNativeFunc implements every native method of one class; the node
// runtime registers these for generated proxy classes.
type ClassNativeFunc func(env *Env, method string, recv Value, args []Value) (Value, *Thrown, error)

type nativeKey struct {
	owner, name string
	arity       int
}

// classState is one class's runtime state, held in its classLink: its
// initialisation, the layout its instances share (nil until the first
// allocation), and the class's monitor.
type classState struct {
	// done is set once initialisation has finished, successfully or
	// not; owner is the execution running it meanwhile.  Both are
	// written under VM.initMu.
	done   atomic.Bool
	owner  atomic.Pointer[Env]
	layout atomic.Pointer[layout]
	// monitor is the class's monitor.  Its gate is held by host-entered
	// static calls (VM.Invoke); its slots are the class's static fields,
	// which it has none of (layout noFields) until the superclass chain
	// has initialised (see VM.initClass).
	monitor Object
}

// syncWriter serialises program output from concurrent executions.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// VM is one address space's interpreter: a program (class path), static
// state, and a native-method registry.  See the package comment for the
// locking model.
type VM struct {
	// prog is the program the VM resolves against, fixed for its
	// lifetime; classes holds each class's link tables and runtime
	// state, created on first use.
	prog    *ir.Program
	classes sync.Map // *ir.Class → *classLink

	// initMu guards every class's initialisation owner and every
	// execution's initWait; initDone, on it, is broadcast whenever an
	// initialisation finishes.  Nothing is acquired while holding it.
	initMu   sync.Mutex
	initDone sync.Cond

	// The native tables, written at boot and read by a native method's
	// first call (callNative), both under regMu.
	regMu        sync.Mutex
	natives      map[nativeKey]NativeFunc
	classNatives map[string]ClassNativeFunc

	// envs recycles execution contexts, and with them their frame slabs,
	// so entering the VM allocates nothing in steady state.
	envs sync.Pool

	maxSteps int64
	maxDepth int

	out   *syncWriter
	clock func() time.Time
}

// Option configures a VM.
type Option func(*VM)

// WithOutput directs sys.System print natives to w.
func WithOutput(w io.Writer) Option { return func(v *VM) { v.out.w = w } }

// WithMaxSteps overrides the step budget of each execution.
func WithMaxSteps(n int64) Option { return func(v *VM) { v.maxSteps = n } }

// WithMaxDepth overrides the call-depth budget.
func WithMaxDepth(n int) Option { return func(v *VM) { v.maxDepth = n } }

// WithClock overrides the time source used by sys.Clock.
func WithClock(f func() time.Time) Option { return func(v *VM) { v.clock = f } }

// New builds a VM over prog.  If prog lacks the system library it is
// merged in automatically.  The system natives are pre-registered.
func New(prog *ir.Program, opts ...Option) (*VM, error) {
	if prog == nil {
		prog = ir.NewProgram()
	}
	if !prog.Has(ir.ObjectClass) {
		merged := stdlib.Program()
		for _, c := range prog.Classes() {
			if err := merged.Add(c); err != nil {
				return nil, fmt.Errorf("merge system library: %w", err)
			}
		}
		prog = merged
	}
	v := &VM{
		prog:         prog,
		natives:      make(map[nativeKey]NativeFunc),
		classNatives: make(map[string]ClassNativeFunc),
		out:          &syncWriter{w: io.Discard},
		maxSteps:     DefaultMaxSteps,
		maxDepth:     DefaultMaxDepth,
		clock:        time.Now,
	}
	v.initDone.L = &v.initMu
	for _, o := range opts {
		o(v)
	}
	registerSystemNatives(v)
	return v, nil
}

// MustNew is New that panics; for tests and generators.
func MustNew(prog *ir.Program, opts ...Option) *VM {
	v, err := New(prog, opts...)
	if err != nil {
		panic(err)
	}
	return v
}

// Program returns the program the VM was built over.  The VM shares it
// with whoever built it; neither may mutate it.
func (v *VM) Program() *ir.Program { return v.prog }

// RegisterNative binds one native method: owner.name with the given
// arity.  Registration is a boot-time operation: a native method that has
// already run keeps the implementation it first ran.
func (v *VM) RegisterNative(owner, name string, arity int, f NativeFunc) {
	v.regMu.Lock()
	v.natives[nativeKey{owner, name, arity}] = f
	v.regMu.Unlock()
}

// RegisterClassNative binds a fallback handler for every native method of
// owner that has no exact registration.  Boot-time, like RegisterNative.
func (v *VM) RegisterClassNative(owner string, f ClassNativeFunc) {
	v.regMu.Lock()
	v.classNatives[owner] = f
	v.regMu.Unlock()
}

// newEnv starts an execution context.
func (v *VM) newEnv() *Env {
	env, _ := v.envs.Get().(*Env)
	if env == nil {
		env = &Env{vm: v}
	}
	return env
}

// maxPooledSlab is the largest frame slab (in Values) kept with a pooled
// Env; an execution that recursed deeper gives its slab back to the
// collector.
const maxPooledSlab = 1 << 14

// finish ends an execution and recycles its context.  The Env must not
// be used afterwards.
func (v *VM) finish(env *Env) {
	slab, gates := env.slab, env.gates
	clear(slab[:env.hi]) // drop the references dead frames left behind
	clear(gates)
	if len(slab) > maxPooledSlab {
		slab = nil
	}
	*env = Env{vm: v, slab: slab, gates: gates[:0]}
	v.envs.Put(env)
}

// reserve makes the slab at least n Values long.
func (e *Env) reserve(n int) {
	if n <= len(e.slab) {
		return
	}
	size := 2 * len(e.slab)
	if size < n {
		size = n
	}
	if size < 256 {
		size = 256
	}
	slab := make([]Value, size)
	copy(slab, e.slab[:e.hi])
	e.slab = slab
}

// Exec runs f in a fresh execution scope with no gate held: executions
// entered this way run in parallel with everything else, synchronising
// only through the per-object and per-slot locks they touch.  The node
// runtime uses it for work on objects not yet shared (creation,
// migration adoption).
func (v *VM) Exec(f func(env *Env)) {
	env := v.newEnv()
	defer v.finish(env)
	f(env)
}

// ExecOn runs f while holding obj's invocation gate: the execution
// serialises against other gated executions — and migrations — of the
// same object, while gated executions of different objects proceed in
// parallel.  This is the scheduler primitive behind concurrent inbound
// dispatch.
func (v *VM) ExecOn(obj *Object, f func(env *Env)) {
	obj.gate.Lock()
	defer obj.gate.Unlock()
	env := v.newEnv()
	env.gates = append(env.gates, gateRef{obj: obj, epoch: obj.Epoch()})
	defer v.finish(env)
	f(env)
}

// ExecOnCatching is ExecOn, converting a MigrationInterrupt raised for
// obj into the interrupted result (interrupts for other objects — inner
// gated targets with their own handling frame — propagate).  Callers
// that receive interrupted=true re-issue the invocation: obj is now a
// proxy, so the retry forwards to the object's new home.
func (v *VM) ExecOnCatching(obj *Object, f func(env *Env)) (interrupted bool) {
	defer func() {
		if r := recover(); r != nil {
			if mi, ok := r.(*MigrationInterrupt); ok && mi.Obj == obj {
				interrupted = true
				return
			}
			panic(r)
		}
	}()
	v.ExecOn(obj, f)
	return false
}

// Invoke calls class.method from the host; the method is resolved in
// class, and every call enters under a monitor.  An instance method on an
// object receiver takes the receiver's invocation gate and dispatches on
// its current class, as invokevirtual and a call arriving over the wire do
// (Env.CallGated), so an override wins and a morphed receiver forwards.  A
// static method holds its declaring class's monitor, as a static
// synchronized method does in Java: host-entered statics of one class
// serialise, while static code reached from inside another execution
// interleaves with them at slot granularity.  Errors are *FaultError or
// *UncaughtError.
func (v *VM) Invoke(class, method string, recv Value, args []Value) (res Value, err error) {
	t, lerr := v.lookup(class, method, len(args))
	if lerr != nil {
		return Value{}, &FaultError{Msg: lerr.Error()}
	}
	c := t.code
	run := func(env *Env) {
		var thrown *Thrown
		if recv.O != nil && !c.m.Static {
			res, thrown, err = env.CallGated(recv.O, method, args)
		} else {
			res, thrown, err = v.enter(env, c, recv, args)
		}
		res, err = v.flatten(res, thrown, err)
	}
	if c.m.Static {
		v.ExecOn(&c.state.monitor, run)
	} else {
		v.Exec(run)
	}
	return res, err
}

// flatten turns an execution's outcome into the host entry points'
// (value, error) shape.
func (v *VM) flatten(res Value, thrown *Thrown, err error) (Value, error) {
	if err != nil {
		return Value{}, err
	}
	if thrown != nil {
		return Value{}, v.uncaught(thrown)
	}
	return res, nil
}

// RunMain locates `static void main()` on the named class and runs it.
func (v *VM) RunMain(class string) error {
	_, err := v.Invoke(class, "main", Value{}, nil)
	return err
}

// NewObject allocates an uninitialised instance (no constructor runs, so
// no lock is needed).
func (v *VM) NewObject(class string) (*Object, error) {
	cl := v.linked(class)
	if cl == nil {
		return nil, &FaultError{Msg: "new: unknown class " + class}
	}
	return v.alloc(cl.class, &cl.state)
}

// Construct allocates an instance and runs its arity-matching constructor.
func (v *VM) Construct(class string, args []Value) (res Value, err error) {
	v.Exec(func(env *Env) {
		res, err = v.flatten(v.construct(env, v.linked(class), class, args))
	})
	return res, err
}

// GetStatic reads a static field (running <clinit> if needed).
func (v *VM) GetStatic(class, field string) (Value, error) {
	mon, err := v.monitorOf(class, field)
	if err != nil {
		return Value{}, err
	}
	return mon.Get(field), nil
}

// SetStatic writes a static field (running <clinit> if needed).  A value
// that does not fit the field's type is refused, as Object.Set refuses it.
func (v *VM) SetStatic(class, field string, val Value) error {
	mon, err := v.monitorOf(class, field)
	if err != nil {
		return err
	}
	return mon.Set(field, val)
}

// Morph re-types obj in place: it becomes an instance of newClass, its
// fields at their zero values but for the given ones.  Every existing
// reference to obj now observes the new class — this implements proxy
// substitution for live objects.  A field newClass does not declare, or a
// value that does not fit its type, refuses the morph and leaves obj
// unchanged.  The swap itself publishes class, layout and slots under the
// object's state lock, and releases a frozen object; callers that must
// also exclude in-flight invocations (migration) hold the object's gate
// via ExecOn around the whole freeze→ship→morph sequence.
func (v *VM) Morph(obj *Object, newClass string, fields map[string]Value) error {
	cl := v.linked(newClass)
	if cl == nil {
		return &FaultError{Msg: "morph: unknown class " + newClass}
	}
	l := v.layoutOf(cl.class, &cl.state)
	vals := slices.Clone(l.zeros)
	if err := l.fill(newClass, vals, fields); err != nil {
		return err
	}
	sd := obj.lock()
	obj.class.Store(cl.class)
	obj.cur.Store(&slots{layout: l, vals: vals})
	sd.epoch.Add(1)
	sd.mu.Unlock()
	return nil
}

func (v *VM) uncaught(t *Thrown) error {
	if t.Obj != nil {
		return &UncaughtError{Class: t.Obj.ClassName(), Message: t.Obj.Get("message").S}
	}
	return &UncaughtError{Class: "<nil>", Message: ""}
}

// ThrownMessage extracts class and message from a thrown exception.
func ThrownMessage(t *Thrown) (class, msg string) {
	if t == nil || t.Obj == nil {
		return "", ""
	}
	return t.Obj.ClassName(), t.Obj.Get("message").S
}

// monitorOf initialises the named class for the host entry points and
// returns its monitor, whose slots hold the static field.
func (v *VM) monitorOf(class, field string) (mon *Object, err error) {
	cl := v.linked(class)
	if cl == nil {
		return nil, &FaultError{Msg: "init: unknown class " + class}
	}
	v.Exec(func(env *Env) {
		var thrown *Thrown
		if thrown, err = v.initClass(env, cl.class); thrown != nil {
			err = v.uncaught(thrown)
		}
	})
	if err != nil {
		return nil, err
	}
	// The monitor has no slots when initialisation never got that far.
	if _, ok := cl.state.monitor.Field(field); !ok {
		return nil, &FaultError{Msg: fmt.Sprintf("no static field %s.%s", class, field)}
	}
	return &cl.state.monitor, nil
}

// layoutOf returns the layout c's instances share (st is c's state),
// building it on first use.
func (v *VM) layoutOf(c *ir.Class, st *classState) *layout {
	if lay := st.layout.Load(); lay != nil {
		return lay
	}
	lay := v.fieldLayout(link{}, c, false)
	if !st.layout.CompareAndSwap(nil, lay) {
		lay = st.layout.Load()
	}
	return lay
}

// fieldLayout builds the layout of c's static fields, or of its
// instances: every non-static field of the superclass chain, a
// subclass's declaration shadowing a superclass's of the same name.  self
// is what each slot's site record carries besides the slot.
func (v *VM) fieldLayout(self link, c *ir.Class, static bool) *layout {
	var names []string
	var types []ir.Type
	seen := make(map[string]bool)
	for cur, steps := c, 0; cur != nil && steps <= v.prog.Len(); steps++ {
		for _, f := range cur.Fields {
			if f.Static == static && !seen[f.Name] {
				seen[f.Name] = true
				names = append(names, f.Name)
				types = append(types, f.Type)
			}
		}
		if static || cur.Super == "" {
			break
		}
		cur = v.prog.Class(cur.Super)
	}
	return newLayout(self, names, types)
}

// alloc creates a zeroed instance of c, whose state is st (no
// constructor).
func (v *VM) alloc(c *ir.Class, st *classState) (*Object, error) {
	if c.IsInterface || c.Abstract {
		return nil, &FaultError{Msg: "new: cannot instantiate " + c.Name}
	}
	o := newInstance(v.layoutOf(c, st))
	o.class.Store(c)
	return o, nil
}

// construct instantiates cl, the link tables of the named class (nil
// when the program has no such class), and runs its constructor of
// args' arity.
func (v *VM) construct(env *Env, cl *classLink, class string, args []Value) (Value, *Thrown, error) {
	if cl == nil {
		return Value{}, nil, &FaultError{Msg: "init: unknown class " + class}
	}
	if !cl.state.done.Load() {
		if thrown, err := v.initClass(env, cl.class); thrown != nil || err != nil {
			return Value{}, thrown, err
		}
	}
	obj, err := v.alloc(cl.class, &cl.state)
	if err != nil {
		return Value{}, nil, err
	}
	ctor := cl.class.Method(ir.ConstructorName, len(args))
	if ctor == nil {
		return Value{}, nil, &FaultError{Msg: fmt.Sprintf("no constructor %s/%d", class, len(args))}
	}
	_, thrown, err := v.enter(env, cl.codes[ctor], RefV(obj), args)
	if thrown != nil || err != nil {
		return Value{}, thrown, err
	}
	return RefV(obj), nil, nil
}

// call resolves class.method by name and executes it within env's
// execution.
func (v *VM) call(env *Env, class, method string, recv Value, args []Value) (Value, *Thrown, error) {
	t, err := v.lookup(class, method, len(args))
	if err != nil {
		return Value{}, nil, &FaultError{Msg: err.Error()}
	}
	return v.enter(env, t.code, recv, args)
}

// callOn is call dispatched on obj's current class.
func (v *VM) callOn(env *Env, obj *Object, method string, args []Value) (Value, *Thrown, error) {
	t, err := v.resolve(obj.Class(), method, len(args))
	if err != nil {
		return Value{}, nil, &FaultError{Msg: err.Error()}
	}
	return v.enter(env, t.code, RefV(obj), args)
}

// enter activates c from outside the interpreter loop: the receiver and
// arguments are copied to the top of env's slab, above every live frame,
// and the result is read back from the first slot of that window (which
// a method without arguments is given too).  It is the one door for
// values from outside verified code — the host's, the wire's, a
// native's — so it checks them against the types the verifier assumed
// (see admit).
func (v *VM) enter(env *Env, c *code, recv Value, args []Value) (Value, *Thrown, error) {
	if err := c.admit(recv, args); err != nil {
		return Value{}, nil, err
	}
	base := env.sp
	end := base + max(c.nargs, 1)
	env.reserve(end)
	frame := env.slab[base : base+c.nargs]
	if !c.m.Static {
		frame[0] = recv
		frame = frame[1:]
	}
	copy(frame, args)
	env.sp = end
	if end > env.hi {
		env.hi = end
	}
	ret, thrown, err := v.invoke(env, c, base)
	var res Value
	if ret {
		res = env.slab[base]
	}
	env.sp = base
	return res, thrown, err
}

// admit checks a call of c from outside verified code: an instance
// method's receiver must be a reference (a null one throws inside), and
// each argument must fit its parameter's declared type.
func (c *code) admit(recv Value, args []Value) error {
	if !c.m.Static && recv.K != ir.KindRef {
		return &FaultError{Msg: fmt.Sprintf("receiver of %s.%s is %s, not a reference", c.class.Name, c.m.Name, kindOf(&recv))}
	}
	for i := range args {
		if t := c.m.Params[i]; !args[i].Fits(t) {
			return &FaultError{Msg: fmt.Sprintf("argument %d of %s.%s is %s, not %s", i, c.class.Name, c.m.Name, kindOf(&args[i]), t)}
		}
	}
	return nil
}

// initClass initialises c (and its superclasses) on first use, as the
// JVM does; callers on a hot path test their class state's done flag
// themselves first.  The first toucher owns the initialisation and
// re-enters freely, so a class's initialiser can reach its own statics;
// every other execution waits, its gates parked, until the owner has
// finished.  A wait that would close a cycle among executions — the
// owner waits, directly or through other waiters, on a class this
// execution is initialising — is never started: the execution is let
// through to the half-initialised class, as the owner itself would be.
// An initialiser that fails has still run: it never runs again.
func (v *VM) initClass(env *Env, c *ir.Class) (*Thrown, error) {
	cl := v.classLink(c)
	st := &cl.state
	if st.done.Load() || st.owner.Load() == env {
		return nil, nil
	}
	v.initMu.Lock()
	for !st.done.Load() {
		owner := st.owner.Load()
		if owner == nil {
			st.owner.Store(env)
			v.initMu.Unlock()
			defer func() {
				v.initMu.Lock()
				st.owner.Store(nil)
				st.done.Store(true)
				v.initDone.Broadcast()
				v.initMu.Unlock()
			}()
			return v.runInit(env, c, cl)
		}
		if waitsOn(owner, env) {
			break
		}
		env.initWait = st
		v.initMu.Unlock()
		env.RunUnlocked(func() {
			v.initMu.Lock()
			for st.owner.Load() == owner {
				v.initDone.Wait()
			}
			env.initWait = nil
			v.initMu.Unlock()
		})
		v.initMu.Lock()
	}
	v.initMu.Unlock()
	return nil, nil
}

// waitsOn reports whether execution o waits, directly or through other
// waiters, on a class env is initialising.  initMu is held; the waits
// form no cycle, since initClass never starts one that would close it.
func waitsOn(o, env *Env) bool {
	for o != nil && o.initWait != nil {
		if o = o.initWait.owner.Load(); o == env {
			return true
		}
	}
	return false
}

// runInit initialises c for initClass, whose claim env holds (cl is c's
// link): the superclass chain first, then c's static slots, then its
// <clinit>.
func (v *VM) runInit(env *Env, c *ir.Class, cl *classLink) (*Thrown, error) {
	if c.Super != "" {
		// As in the seed, a failed superclass initialisation leaves
		// this class initialised but slot-less: later static accesses
		// fault rather than reading phantom zero values.
		sc := v.prog.Class(c.Super)
		if sc == nil {
			return nil, &FaultError{Msg: "init: unknown class " + c.Super}
		}
		if thrown, err := v.initClass(env, sc); thrown != nil || err != nil {
			return thrown, err
		}
	}
	// Slots appear only now — after the super chain initialised, before
	// the clinit runs (which populates them) — mirroring the seed's
	// observable windows exactly.  The monitor's epoch stays: it is no
	// morph, and a static call may hold the monitor's gate meanwhile.
	l := v.fieldLayout(cl.self, c, true)
	mon := &cl.state.monitor
	sd := mon.lock()
	mon.cur.Store(&slots{layout: l, vals: slices.Clone(l.zeros)})
	sd.mu.Unlock()

	if clinit := c.StaticInit(); clinit != nil {
		_, thrown, err := v.enter(env, cl.codes[clinit], Value{}, nil)
		if thrown != nil || err != nil {
			return thrown, err
		}
	}
	return nil, nil
}

// throwSys builds a Thrown of a sys.* exception class.
func (v *VM) throwSys(class, msg string) *Thrown {
	obj, err := v.NewObject(class)
	if err != nil {
		// The system library is always present; this indicates a broken
		// program set.  Surface as a throwable-less Thrown.
		return &Thrown{}
	}
	obj.Set("message", StringV(msg))
	return &Thrown{Obj: obj}
}
