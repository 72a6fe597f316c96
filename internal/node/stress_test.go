package node

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafda/internal/policy"
	"rafda/internal/transform"
	"rafda/internal/vm"
)

// TestMigrateUnderInvocationLoad races live object migration against a
// storm of concurrent invocations on the same object — the ROADMAP's
// open stress scenario.  Every bump() increments the object's counter by
// exactly one; the object is meanwhile shuttled between two nodes many
// times.  The per-object gate must make each migration atomic
// (snapshot→ship→morph with in-flight invocations drained), so at the
// end the counter equals the number of successful bumps — any lost
// update means an invocation landed on a copy that was snapshotted
// before and discarded after.  Run under -race in CI.
func TestMigrateUnderInvocationLoad(t *testing.T) {
	src := `
class Till {
    int total;
    Till(int t) { this.total = t; }
    int bump() { total = total + 1; return total; }
    int read() { return total; }
}
class Holder {
    static Till till = new Till(0);
    static int poke() { return till.bump(); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	nodeA, nodeB, epB := twoNodes(t, res, "rrp")
	epA := nodeA.Endpoint("rrp")

	ref, err := nodeA.ReadStatic("Holder", "till")
	if err != nil {
		t.Fatalf("read static: %v", err)
	}
	if ref.O == nil {
		t.Fatal("nil till reference")
	}

	const (
		workers    = 6
		callsEach  = 40
		migrations = 12
	)
	var bumps atomic.Int64
	var wg sync.WaitGroup

	// Invocation storm: every call goes through the same handle, which
	// is a live local object at first and flips between live object and
	// forwarding proxy as migrations land.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				if _, err := nodeA.CallOn(ref, "bump"); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
				bumps.Add(1)
			}
		}()
	}

	// Migration shuttle, concurrent with the storm: A -> B -> A -> ...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < migrations; i++ {
			target := epB
			if i%2 == 1 {
				target = epA
			}
			if err := nodeA.Migrate(ref, target); err != nil {
				t.Errorf("migration %d to %s: %v", i, target, err)
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// The handle still reaches the object wherever it ended up; the
	// counter must account for every successful bump exactly once.
	got, err := nodeA.CallOn(ref, "read")
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if want := bumps.Load(); got.I != want {
		t.Fatalf("lost updates under migration: counter=%d, successful bumps=%d", got.I, want)
	}
	inB := count(nodeB, "node.migrations_in")
	inA := count(nodeA, "node.migrations_in")
	if inB == 0 {
		t.Error("object never reached node B — the race was not exercised")
	}
	t.Logf("bumps=%d migrationsIn A=%d B=%d", bumps.Load(), inA, inB)
}

// TestMigrateWhileInvocationParked is the ROADMAP's parked-invocation
// regression: an invocation that releases its target's gate while
// blocked in a nested remote call (Env.RunUnlocked) used to resume
// old-class bytecode after a migration morphed its target mid-method —
// the method tail then ran field-by-field through the proxy, ungated at
// the new home (no monitor semantics, one round trip per access).  The
// epoch check on gate re-acquisition instead unwinds the invocation and
// retries it whole through the morphed proxy, so the complete method
// re-executes under the object's gate at its new home.
//
// The discriminator: the retry re-runs the method from the top
// (documented at-least-once semantics for the pre-park prefix), so the
// helper's counter must read 2 — the old continuation path leaves it
// at 1.
func TestMigrateWhileInvocationParked(t *testing.T) {
	src := `
class Helper {
    int count;
    Helper() { this.count = 0; }
    int slow(int us) { count = count + 1; sys.Clock.sleepMicros(us); return count; }
}
class Holder {
    int val;
    Helper h;
    Holder(int v, Helper h) { this.val = v; this.h = h; }
    int work(int us) {
        h.slow(us);
        return val;
    }
    int hits() { return h.count; }
}
class Setup {
    static Holder make() { return new Holder(7, new Helper()); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	nodeA, nodeB, epB := twoNodes(t, res, "rrp")

	// Helper lives on B, so Holder.work parks on the wire mid-method;
	// Holder itself starts on A.
	pl, err := policy.RemoteAt(epB)
	if err != nil {
		t.Fatal(err)
	}
	nodeA.Policy().SetClass("Helper", pl)
	ref, err := nodeA.InvokeStatic("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var got vm.Value
	go func() {
		v, err := nodeA.CallOn(ref, "work", vm.IntV(250_000)) // parks ~250ms on B
		got = v
		done <- err
	}()

	// Let the invocation enter its nested remote call and park, then
	// migrate the Holder out from under it.  (The hits==2 assertion
	// below also proves the migration landed mid-call: a call that
	// finished first would leave the counter at 1.)
	time.Sleep(40 * time.Millisecond)
	if err := nodeA.Migrate(ref, epB); err != nil {
		t.Fatalf("migrate while parked: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("parked invocation faulted after migration: %v", err)
	}
	if got.I != 7 {
		t.Fatalf("work() = %d, want 7 (retry must land on the migrated state)", got.I)
	}
	if in := count(nodeB, "node.migrations_in"); in != 1 {
		t.Fatalf("migrations into B = %d, want 1", in)
	}
	// The interrupted attempt completed its nested call once, and the
	// retry ran the whole method again at the new home: exactly two
	// slow() executions.  The old continuation path (resume old-class
	// bytecode through the proxy) leaves the counter at 1.
	hits, err := nodeA.CallOn(ref, "hits")
	if err != nil {
		t.Fatalf("hits: %v", err)
	}
	if hits.I != 2 {
		t.Fatalf("helper saw %d slow() calls, want 2 (whole-method retry at the new home)", hits.I)
	}
	// The handle (now a proxy) keeps working against the new home.
	v, err := nodeA.CallOn(ref, "work", vm.IntV(1))
	if err != nil || v.I != 7 {
		t.Fatalf("post-migration call: %v %v", v, err)
	}
}

// TestUngatedWritesSurviveMigration: a static entry — gated on its
// class's statics holder, never on the Till — bumps a Till through the
// Till's accessors while the host migrates the Till to a peer.  Every
// bump the entry acknowledged must be in the count the Till reads at its
// new home.  Before field-site stores waited for a migration's frozen
// object, a store landing between the snapshot and the morph was lost
// with the local state; before an accessor whose receiver morphed after
// dispatch was dispatched again, the entry died with "no field total on
// Till_O_Proxy".  Each round runs on fresh nodes and migrates
// while the loop is hot; the peer is in-process, so the bumps that follow
// the Till there stay cheap under -race.
func TestUngatedWritesSurviveMigration(t *testing.T) {
	src := `
class Till {
    int total;
    void bump() { total = total + 1; }
    int read() { return total; }
}
class Pump {
    static Till till = new Till();
    static int run(int n) { for (int i = 0; i < n; i = i + 1) { till.bump(); } return n; }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	const rounds, bumps = 20, 20000
	for r := 0; r < rounds; r++ {
		t.Run(fmt.Sprintf("round%d", r), func(t *testing.T) {
			nodeA, nodeB, epB := twoNodes(t, res, "inproc")
			till, err := nodeA.ReadStatic("Pump", "till")
			if err != nil || till.O == nil {
				t.Fatalf("read static: %v %v", till, err)
			}
			type result struct {
				acked vm.Value
				err   error
			}
			done := make(chan result, 1)
			go func() {
				v, err := nodeA.InvokeStatic("Pump", "run", vm.IntV(bumps))
				done <- result{v, err}
			}()
			// Migrate while the loop is hot and half done.  (On the rare
			// round where the loop outruns this poll, the migration
			// lands after it and the round checks nothing.)
			var out result
			ran := false
			for !ran && till.O.Get("total").I < bumps/2 {
				select {
				case out = <-done:
					ran = true
				default:
					runtime.Gosched()
				}
			}
			if err := nodeA.Migrate(till, epB); err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if !ran {
				out = <-done
			}
			if out.err != nil {
				t.Fatalf("Pump.run: %v", out.err)
			}
			got, err := nodeA.CallOn(till, "read")
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if got.I != out.acked.I {
				t.Fatalf("%d bumps acknowledged, the Till read %d", out.acked.I, got.I)
			}
			if in := count(nodeB, "node.migrations_in"); in != 1 {
				t.Fatalf("migrations into the peer = %d, want 1", in)
			}
		})
	}
}

// TestCreationsRacingPlacementFlip races factory creations against
// policy re-placement flips of the same class: every creation must land
// wholly under the old or the new placement — a fully-local instance or
// a fully-wired proxy, each immediately usable — and never a
// half-proxied hybrid (ISSUE: concurrent re-policy).
func TestCreationsRacingPlacementFlip(t *testing.T) {
	src := `
class Cell {
    int n;
    Cell(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Mk {
    static Cell make() { return new Cell(41); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	nodeA, _, epB := twoNodes(t, res, "rrp")
	remote, err := policy.RemoteAt(epB)
	if err != nil {
		t.Fatal(err)
	}

	const flips = 40
	const makers = 4
	const each = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < flips; i++ {
			if i%2 == 0 {
				nodeA.Policy().SetClass("Cell", remote)
			} else {
				nodeA.Policy().SetClass("Cell", policy.LocalPlacement)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	errs := make(chan error, makers)
	for w := 0; w < makers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ref, err := nodeA.InvokeStatic("Mk", "make")
				if err != nil {
					errs <- err
					return
				}
				cls := ref.O.ClassName()
				local := cls == "Cell_O_Local"
				proxy := !local && transform.MarkOf(ref.O.Class()).Kind.Proxy()
				if !local && !proxy {
					errs <- &vm.FaultError{Msg: "creation landed on neither placement: " + cls}
					return
				}
				// Whichever side it landed on, the instance must be
				// fully initialised and callable.
				v, err := nodeA.CallOn(ref, "bump")
				if err != nil {
					errs <- err
					return
				}
				if v.I != 42 {
					errs <- &vm.FaultError{Msg: "half-initialised instance"}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestHostCallsCountAsLocalAffinity pins the telemetry wiring for
// host-driven calls: with telemetry on, Node.CallOn counts as local
// affinity evidence from the very first host call, creating the stats
// record itself if no peer has seen the object yet — without this, a
// remote peer's trickle could out-vote the hosting node's own heavy
// pre-remote usage and migrate the object away from it.
func TestHostCallsCountAsLocalAffinity(t *testing.T) {
	src := `
class Cell {
    int n;
    Cell(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Mk {
    static Cell make() { return new Cell(0); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	n, err := New(Config{Name: "solo", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rec := n.EnableTelemetry()
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	// The very first host call creates the stats record: pre-remote
	// host usage is evidence too, and must already be on the books when
	// the first peer shows up.
	if _, err := n.CallOn(ref, "bump"); err != nil {
		t.Fatal(err)
	}
	got, _ := rec.NewWindow().Next()
	if len(got) != 1 || got[0].Local != 1 || got[0].Class != "Cell" {
		t.Fatalf("first host call not tracked: %+v", got)
	}
	// A peer observed it (simulated inbound): both kinds accumulate on
	// the same record.
	rec.ForObject(ref.O, got[0].GUID, "Cell").RecordInbound("rrp://peer:1", 1, 1, 0)
	for i := 0; i < 3; i++ {
		if _, err := n.CallOn(ref, "bump"); err != nil {
			t.Fatal(err)
		}
	}
	samples, _ := rec.NewWindow().Next()
	if len(samples) != 1 || samples[0].Local != 4 || samples[0].Remote != 1 {
		t.Fatalf("host calls not counted as local affinity: %+v", samples)
	}
}

// TestParallelInvocationsDistinctObjects checks the dispatch scheduler's
// core property directly at the node API: gated invocations of distinct
// objects run concurrently (here: all workers make progress without any
// global serialisation fault) and per-object totals stay exact — each
// object's bumps serialise on its own gate only.
func TestParallelInvocationsDistinctObjects(t *testing.T) {
	src := `
class Cell {
    int n;
    Cell(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Mk {
    static Cell make() { return new Cell(0); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	n, err := New(Config{Name: "solo", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	const objects = 4
	const callsEach = 200
	refs := make([]vm.Value, objects)
	for i := range refs {
		v, err := n.InvokeStatic("Mk", "make")
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = v
	}
	var wg sync.WaitGroup
	for i := range refs {
		wg.Add(1)
		go func(ref vm.Value) {
			defer wg.Done()
			for c := 0; c < callsEach; c++ {
				if _, err := n.CallOn(ref, "bump"); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
			}
		}(refs[i])
	}
	wg.Wait()
	for i, ref := range refs {
		got, err := n.CallOn(ref, "bump")
		if err != nil {
			t.Fatal(err)
		}
		if got.I != callsEach+1 {
			t.Errorf("object %d: count %d want %d", i, got.I, callsEach+1)
		}
	}
}

// TestSharedObjectInvocationsSerialise drives many goroutines at ONE
// object: the per-object gate is a monitor, so the read-modify-write
// bump() must never lose an update even though the calls arrive in
// parallel.
func TestSharedObjectInvocationsSerialise(t *testing.T) {
	src := `
class Cell {
    int n;
    Cell(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
    int read() { return n; }
}
class Mk {
    static Cell make() { return new Cell(0); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	n, err := New(Config{Name: "solo", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const callsEach = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < callsEach; c++ {
				if _, err := n.CallOn(ref, "bump"); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := n.CallOn(ref, "read")
	if err != nil {
		t.Fatal(err)
	}
	if got.I != workers*callsEach {
		t.Fatalf("lost updates on shared object: %d want %d", got.I, workers*callsEach)
	}
}

// TestConcurrentInvokeStaticOnSingleton races static calls at one class
// whose statics live in a singleton — including the very first touch,
// which creates the singleton and runs the class initialiser.  Host entry
// holds no VM-wide lock: it takes the singleton's gate, the one a call
// arriving over the wire takes.  So there is one singleton and one
// initialisation, every caller sees it complete, and a read-modify-write
// of a static loses no update whether its callers enter from the host,
// over the wire, or both at once.
func TestConcurrentInvokeStaticOnSingleton(t *testing.T) {
	src := `
class Cell {
    int n;
    Cell(int n) { this.n = n; }
}
class Reg {
    static int inits = 0;
    static int count = 0;
    static Cell shared = Reg.boot();
    static Cell boot() { inits = inits + 1; return new Cell(7); }
    static Cell shared() { return shared; }
    static int inits() { return inits; }
    static int inc() { count = count + 1; return count; }
}
class Main { static void main() {} }`
	remote, home, endpoint := twoNodes(t, transformSource(t, src), "rrp")
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	remote.Policy().SetClass("Reg", pl)

	const workers = 8
	const callsEach = 100
	shared := make([]*vm.Object, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ref, err := home.InvokeStatic("Reg", "shared")
			if err != nil || ref.O == nil {
				t.Errorf("shared: %v %v", ref, err)
				return
			}
			shared[w] = ref.O
			via := home // even workers enter from the host, odd ones over the wire
			if w%2 == 1 {
				via = remote
			}
			for c := 0; c < callsEach; c++ {
				if _, err := via.InvokeStatic("Reg", "inc"); err != nil {
					t.Errorf("inc: %v", err)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, obj := range shared {
		if obj != shared[0] {
			t.Fatalf("caller %d saw a different Reg.shared: initialisation ran more than once or was observed half-done", w)
		}
	}
	if inits, err := home.InvokeStatic("Reg", "inits"); err != nil || inits.I != 1 {
		t.Fatalf("class initialiser ran %v times (%v), want 1", inits.I, err)
	}
	if got, err := home.ReadStatic("Reg", "count"); err != nil || got.I != workers*callsEach {
		t.Fatalf("lost updates on a static: %v (%v), want %d", got.I, err, workers*callsEach)
	}
}

// TestCyclicSingletonInitAcrossExecutions: two executions each creating a
// statics singleton whose initialiser reads the other's.  Each sleeps
// inside its initialiser first, so both creations are in progress when
// either asks for the other's class.  One of them must be let through to
// the half-initialised instance (as the JVM lets a thread through inside
// its own initialisation cycle) or both wait for ever.
func TestCyclicSingletonInitAcrossExecutions(t *testing.T) {
	src := `
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
class Main { static void main() {} }`
	n, err := New(Config{Name: "solo", Result: transformSource(t, src)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	got := make(chan int64, 2)
	for _, class := range []string{"X", "Y"} {
		go func() {
			v, err := n.InvokeStatic(class, "get")
			if err != nil {
				t.Errorf("%s.get: %v", class, err)
			}
			got <- v.I
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

// TestSingletonWaiterParksItsGates: execution B is creating Reg, whose
// initialiser raises Flag.up, sleeps and then pokes box through a relay
// on a second node, so the poke arrives back as an inbound call that
// needs box's gate.  Meanwhile execution A holds box's gate and touches
// Reg, so it waits for B's creation.  The waiter must release its gates
// while it waits, or A waits on B, B on the poke and the poke on A.
func TestSingletonWaiterParksItsGates(t *testing.T) {
	src := `
class Box {
    int n;
    int poke() { n = n + 1; return n; }
    int touch() { return Reg.get(); }
}
class Holder {
    static Box box = new Box();
    static Box box() { return box; }
}
class Relay {
    static int poke(Box b) { return b.poke(); }
}
class Flag {
    static int up;
}
class Reg {
    static int v = Reg.boot();
    static int boot() { Flag.up = 1; sys.Clock.sleepMicros(100000); return Relay.poke(Holder.box()); }
    static int get() { return v; }
}
class Main { static void main() {} }`
	home, _, endpoint := twoNodes(t, transformSource(t, src), "rrp")
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	home.Policy().SetClass("Relay", pl)
	box, err := home.InvokeStatic("Holder", "box")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		v   int64
		err error
	}
	b := make(chan result, 1)
	go func() {
		v, err := home.InvokeStatic("Reg", "get")
		b <- result{v.I, err}
	}()
	// Reg's creation is in progress once its initialiser raised the flag.
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		up, err := home.ReadStatic("Flag", "up")
		if err != nil {
			t.Fatal(err)
		}
		if up.I == 1 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("Reg's initialiser never raised Flag.up")
		}
	}
	a := make(chan result, 1)
	go func() {
		v, err := home.CallOn(box, "touch")
		a <- result{v.I, err}
	}()
	deadline := time.After(10 * time.Second)
	for _, ch := range []chan result{a, b} {
		select {
		case r := <-ch:
			if r.err != nil || r.v != 1 {
				t.Fatalf("Reg.get = %d, %v; want 1", r.v, r.err)
			}
		case <-deadline:
			t.Fatal("a singleton waiter holding box's gate blocked the initialiser's call into box")
		}
	}
}
