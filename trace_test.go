package rafda

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
)

// Node-level tracing tests: every distributed leg a logical call can
// take — nested remote calls, migration re-sends, replica-routed reads,
// write-barrier fan-outs, dedup verdicts and failover redials — must
// stay on the one trace that caused it, verified through the same
// introspection plane rafdac reads.  All of these run under -race in
// CI, so they double as the data-race audit of the span arena, the
// ring, and the env baggage.

const traceSource = `
class Inner {
    int id;
    Inner(int id) { this.id = id; }
    int get() { return id; }
}
class Outer {
    Inner in;
    Outer() { this.in = new Inner(9); }
    int relay() { return in.get(); }
}
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
    int read() { return n; }
}
class Holder {
    static Counter held = new Counter(0);
    static Counter get() { return held; }
}
class Mk {
    static Outer outer() { return new Outer(); }
    static Counter counter() { return new Counter(0); }
}
class Main { static void main() {} }`

func traceFixture(t *testing.T) *Transformed {
	t.Helper()
	prog, err := CompileString(traceSource)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceNode builds one served node with a ring big enough that no test
// span is ever overwritten (the orphan audits need complete history).
func traceNode(t *testing.T, tr *Transformed, name string, net NetProfile) (*Node, string) {
	t.Helper()
	n, err := tr.NewNode(NodeConfig{Name: name, Network: net, Tracing: TracingConfig{Spans: 32768}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ep, err := n.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	return n, ep
}

// tSpan is the slice of the introspection "spans" payload these audits
// read (the same shape rafdac and the E14 audit decode).
type tSpan struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Dur    int64  `json:"dur"`
	Err    string `json:"err"`
}

// ringUnion snapshots and concatenates the given nodes' flight
// recorders.
func ringUnion(t *testing.T, nodes ...*Node) []tSpan {
	t.Helper()
	var all []tSpan
	for _, n := range nodes {
		out, err := n.IntrospectJSON("spans", "")
		if err != nil {
			t.Fatal(err)
		}
		var part []tSpan
		if err := json.Unmarshal([]byte(out), &part); err != nil {
			t.Fatalf("bad spans payload: %v", err)
		}
		all = append(all, part...)
	}
	return all
}

// oneSpan returns the single span matching the predicate, failing the
// test on zero or several matches.
func oneSpan(t *testing.T, spans []tSpan, what string, match func(tSpan) bool) tSpan {
	t.Helper()
	var found []tSpan
	for _, s := range spans {
		if match(s) {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s: %d matching spans, want exactly 1", what, len(found))
	}
	return found[0]
}

// assertNoOrphans checks that every parent edge in the union resolves —
// the cross-node completeness invariant E14 gates under chaos.
func assertNoOrphans(t *testing.T, spans []tSpan) {
	t.Helper()
	known := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		known[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !known[s.Parent] {
			t.Fatalf("orphan span %x (%s %q on %s): parent %x missing from the ring union",
				s.ID, s.Kind, s.Name, s.Node, s.Parent)
		}
	}
}

// TestTraceNestedCallSpansConnected drives one call through a two-hop
// chain — driver calls Outer on b, whose method calls Inner on c — and
// asserts the whole chain is a single connected trace: the driver's
// client span roots it, each server span parents to the client span
// that carried it, and the nested leg proves the env baggage survived
// the dispatch boundary.
func TestTraceNestedCallSpansConnected(t *testing.T) {
	tr := traceFixture(t)
	driver, _ := traceNode(t, tr, "driver", NetProfile{})
	b, epB := traceNode(t, tr, "b", NetProfile{})
	c, epC := traceNode(t, tr, "c", NetProfile{})

	// Mk.outer() runs at the driver, so both placements are the
	// driver's: the Outer lands on b, the Inner its constructor makes
	// lands on c, and relay() becomes a b-to-c hop.
	if err := driver.PlaceClass("Outer", epB); err != nil {
		t.Fatal(err)
	}
	if err := driver.PlaceClass("Inner", epC); err != nil {
		t.Fatal(err)
	}
	made, err := driver.Call("Mk", "outer")
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.CallOn(made.(*Ref), "relay")
	if err != nil || got.(int64) != 9 {
		t.Fatalf("relay=%v err=%v", got, err)
	}

	spans := ringUnion(t, driver, b, c)
	assertNoOrphans(t, spans)
	root := oneSpan(t, spans, "client relay", func(s tSpan) bool {
		return s.Node == "driver" && s.Kind == "client" && s.Name == "relay"
	})
	if root.Parent != 0 {
		t.Fatalf("host-driven call should root its trace, parent=%x", root.Parent)
	}
	if root.Dur <= 0 {
		t.Fatalf("client span carries no duration: %+v", root)
	}
	srvB := oneSpan(t, spans, "server relay", func(s tSpan) bool {
		return s.Trace == root.Trace && s.Kind == "server" && s.Name == "relay"
	})
	if srvB.Node != "b" || srvB.Parent != root.ID {
		t.Fatalf("server relay span on %s parent %x, want b under %x", srvB.Node, srvB.Parent, root.ID)
	}
	cliB := oneSpan(t, spans, "nested client get", func(s tSpan) bool {
		return s.Trace == root.Trace && s.Kind == "client" && s.Name == "get"
	})
	if cliB.Node != "b" || cliB.Parent != srvB.ID {
		t.Fatalf("nested client span on %s parent %x, want b under %x (env baggage lost)",
			cliB.Node, cliB.Parent, srvB.ID)
	}
	srvC := oneSpan(t, spans, "server get", func(s tSpan) bool {
		return s.Trace == root.Trace && s.Kind == "server" && s.Name == "get"
	})
	if srvC.Node != "c" || srvC.Parent != cliB.ID {
		t.Fatalf("leaf server span on %s parent %x, want c under %x", srvC.Node, srvC.Parent, cliB.ID)
	}
}

// TestTraceMigrationLegsOnCallTrace migrates a counter mid-life and
// asserts the migration legs were recorded, the post-migration call's
// trace reaches the new home, and the union of all three rings stays
// orphan-free.
func TestTraceMigrationLegsOnCallTrace(t *testing.T) {
	tr := traceFixture(t)
	driver, _ := traceNode(t, tr, "driver", NetProfile{})
	server, epServer := traceNode(t, tr, "server", NetProfile{})
	spare, epSpare := traceNode(t, tr, "spare", NetProfile{})

	if err := driver.PlaceClass("Counter", epServer); err != nil {
		t.Fatal(err)
	}
	made, err := driver.Call("Mk", "counter")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)
	if got, err := driver.CallOn(ref, "bump"); err != nil || got.(int64) != 1 {
		t.Fatalf("pre-migration bump=%v err=%v", got, err)
	}
	if err := driver.Migrate(ref, epSpare); err != nil {
		t.Fatal(err)
	}
	if got, err := driver.CallOn(ref, "bump"); err != nil || got.(int64) != 2 {
		t.Fatalf("post-migration bump=%v err=%v", got, err)
	}

	spans := ringUnion(t, driver, server, spare)
	assertNoOrphans(t, spans)
	migrations := 0
	for _, s := range spans {
		if s.Kind == "migration" {
			migrations++
		}
	}
	if migrations == 0 {
		t.Fatal("migration left no migration span in any ring")
	}
	// The post-migration bump is the one whose server span ran on spare.
	srv := oneSpan(t, spans, "server bump on spare", func(s tSpan) bool {
		return s.Node == "spare" && s.Kind == "server" && s.Name == "bump"
	})
	cli := oneSpan(t, spans, "its client span", func(s tSpan) bool {
		return s.ID == srv.Parent
	})
	if cli.Node != "driver" || cli.Kind != "client" || cli.Trace != srv.Trace {
		t.Fatalf("post-migration bump did not connect driver to spare: client %+v", cli)
	}
}

// TestTraceReplicaReadAndWriteBarrier verifies the replication plane's
// two trace kinds end to end: a classified read from a member that
// holds no copy routes to the replica node and leaves a replica-read
// span on the reader's trace, and a write through the same proxy
// serialises at the primary and hangs its fan-out barrier span under
// the primary's server span.
func TestTraceReplicaReadAndWriteBarrier(t *testing.T) {
	tr := traceFixture(t)
	names := []string{"home", "replica", "reader"}
	nodes := make([]*Node, 3)
	eps := make([]string, 3)
	clusters := make([]*Cluster, 3)
	for i, name := range names {
		nodes[i], eps[i] = traceNode(t, tr, name, NetProfile{})
		var seeds []string
		if i > 0 {
			seeds = []string{eps[0]}
		}
		cl, err := nodes[i].JoinCluster(ClusterConfig{Seeds: seeds, Fanout: 3})
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = cl
	}
	home, replica, reader := nodes[0], nodes[1], nodes[2]
	tick := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, cl := range clusters {
				cl.Tick()
			}
		}
	}
	tick(2) // membership settles

	// home holds the object; reader gets a proxy through the shared
	// static holder.
	held, err := home.Call("Holder", "get")
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.PlaceClass("Holder", eps[0]); err != nil {
		t.Fatal(err)
	}
	rref, err := reader.Call("Holder", "get")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Replicate(held.(*Ref), eps[1]); err != nil {
		t.Fatal(err)
	}
	tick(4) // replica set + leases gossip out

	if got, err := reader.CallOn(rref.(*Ref), "read"); err != nil || got.(int64) != 0 {
		t.Fatalf("routed read=%v err=%v", got, err)
	}
	if got, err := reader.CallOn(rref.(*Ref), "bump"); err != nil || got.(int64) != 1 {
		t.Fatalf("write through proxy=%v err=%v", got, err)
	}

	spans := ringUnion(t, home, replica, reader)
	assertNoOrphans(t, spans)
	cliRead := oneSpan(t, spans, "client read", func(s tSpan) bool {
		return s.Node == "reader" && s.Kind == "client" && s.Name == "read"
	})
	rep := oneSpan(t, spans, "replica-read span", func(s tSpan) bool {
		return s.Kind == "replica-read" && s.Name == "read"
	})
	if rep.Node != "replica" || rep.Trace != cliRead.Trace {
		t.Fatalf("read was not absorbed at the replica on the caller's trace: %+v", rep)
	}
	cliBump := oneSpan(t, spans, "client bump", func(s tSpan) bool {
		return s.Node == "reader" && s.Kind == "client" && s.Name == "bump"
	})
	srvBump := oneSpan(t, spans, "server bump", func(s tSpan) bool {
		return s.Trace == cliBump.Trace && s.Kind == "server" && s.Name == "bump"
	})
	if srvBump.Node != "home" {
		t.Fatalf("write did not serialise at the primary: server span on %s", srvBump.Node)
	}
	barrier := oneSpan(t, spans, "write barrier", func(s tSpan) bool {
		return s.Kind == "barrier" && s.Trace == cliBump.Trace
	})
	if barrier.Node != "home" || barrier.Parent != srvBump.ID {
		t.Fatalf("barrier span not under the primary's server span: %+v", barrier)
	}
}

// TestTraceChaosLegsConnected injects a seeded dup+kill schedule on a
// single sequential caller and asserts the recovery legs — dedup
// verdicts for absorbed duplicates, failover spans for redials — landed
// on the traces of the calls that rode them, with the union still
// orphan-free and every acked call's client span error-free.
func TestTraceChaosLegsConnected(t *testing.T) {
	tr := traceFixture(t)
	chaos := NetLAN
	chaos.Faults = &NetFaults{Seed: 7, DupPerMille: 40, KillPerMille: 10, FirstSafeWrites: 4}
	driver, _ := traceNode(t, tr, "driver", chaos)
	server, epServer := traceNode(t, tr, "server", chaos)

	if err := driver.PlaceClass("Counter", epServer); err != nil {
		t.Fatal(err)
	}
	made, err := driver.Call("Mk", "counter")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)
	const calls = 300
	for i := 1; i <= calls; i++ {
		if got, err := driver.CallOn(ref, "bump"); err != nil || got.(int64) != int64(i) {
			t.Fatalf("call %d: got=%v err=%v", i, got, err)
		}
	}

	spans := ringUnion(t, driver, server)
	assertNoOrphans(t, spans)
	traces := make(map[uint64]bool)
	roots := 0
	var dedups, failovers int
	for _, s := range spans {
		if s.Node == "driver" && s.Kind == "client" && s.Name == "bump" {
			if s.Err != "" {
				t.Fatalf("acked call's client span carries error %q", s.Err)
			}
			roots++
			traces[s.Trace] = true
		}
	}
	if roots != calls {
		t.Fatalf("%d acked calls left %d client spans", calls, roots)
	}
	for _, s := range spans {
		switch s.Kind {
		case "dedup":
			dedups++
			if !traces[s.Trace] {
				t.Fatalf("dedup verdict on unknown trace %x", s.Trace)
			}
		case "failover":
			failovers++
			if !traces[s.Trace] {
				t.Fatalf("failover span on unknown trace %x", s.Trace)
			}
		}
	}
	if dedups == 0 {
		t.Fatal("dup schedule left no dedup verdict span")
	}
	if failovers == 0 {
		t.Fatal("kill schedule left no failover span")
	}
}

// TestTraceConcurrentChurnNoOrphans is the -race workhorse: parallel
// callers hammer one counter while it migrates under them, and the
// quiesced rings must still hold one error-free connected tree per
// acked call — the deterministic (fault-free) core of the E14 chaos
// audit, exercising the span arena, the ring and the env baggage from
// many goroutines at once.
func TestTraceConcurrentChurnNoOrphans(t *testing.T) {
	tr := traceFixture(t)
	driver, _ := traceNode(t, tr, "driver", NetProfile{})
	server, epServer := traceNode(t, tr, "server", NetProfile{})
	spare, epSpare := traceNode(t, tr, "spare", NetProfile{})

	if err := driver.PlaceClass("Counter", epServer); err != nil {
		t.Fatal(err)
	}
	made, err := driver.Call("Mk", "counter")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)

	const calls = 400
	var next, acked atomic.Int64
	errs := make(chan error, 8)
	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		for acked.Load() < calls/2 {
		}
		if err := driver.Migrate(ref, epSpare); err != nil {
			errs <- err
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= calls {
				if _, err := driver.CallOn(ref, "bump"); err != nil {
					errs <- err
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	<-migrated
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got, err := driver.CallOn(ref, "read"); err != nil || got.(int64) != calls {
		t.Fatalf("final read=%v err=%v", got, err)
	}

	spans := ringUnion(t, driver, server, spare)
	assertNoOrphans(t, spans)
	roots, crossNode := 0, 0
	remote := make(map[uint64]bool)
	for _, s := range spans {
		if s.Node != "driver" {
			remote[s.Trace] = true
		}
	}
	for _, s := range spans {
		if s.Node == "driver" && s.Kind == "client" && s.Name == "bump" {
			if s.Err != "" {
				t.Fatalf("acked call's client span carries error %q", s.Err)
			}
			roots++
			if remote[s.Trace] {
				crossNode++
			}
		}
	}
	if roots != calls {
		t.Fatalf("%d acked calls left %d client bump spans", calls, roots)
	}
	if crossNode != roots {
		t.Fatalf("%d of %d traces never reached a remote span", roots-crossNode, roots)
	}
}
