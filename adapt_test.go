package rafda

import (
	"encoding/json"
	"strings"
	"testing"
)

const adaptSource = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// TestAdaptiveMigrationConverges drives the whole closed loop
// deterministically (manual adapter ticks, no timers): a hot object is
// mis-placed on node B while all its calls come from node A; B's
// adapter must observe the affinity, migrate the object to A with state
// intact, the caller's proxy must retarget off the forwarding hop, and
// neither adapter may ever move the object again (no ping-pong).  A's
// adapter must additionally flip the class policy local, so future
// creations stop being mis-placed — the §4 boundary redraw with zero
// manual Migrate/PlaceClass calls.
func TestAdaptiveMigrationConverges(t *testing.T) {
	prog, err := CompileString(adaptSource)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	nodeA, err := tr.NewNode(NodeConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := tr.NewNode(NodeConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	epA, err := nodeA.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := nodeB.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}

	cfg := AdaptConfig{Threshold: 0.6, MinCalls: 10, Confirm: 2, Budget: 2}
	adA := nodeA.NewAdapter(cfg)
	adB := nodeB.NewAdapter(cfg)

	// Mis-place the hot class, then create the hot object from A.
	if err := nodeA.PlaceClass("Counter", epB); err != nil {
		t.Fatal(err)
	}
	made, err := nodeA.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)
	if !strings.Contains(ref.ClassName(), "Proxy") {
		t.Fatalf("mis-placed object should start as a proxy, is %s", ref.ClassName())
	}

	next := int64(0)
	drive := func(calls int) {
		t.Helper()
		for i := 0; i < calls; i++ {
			got, err := nodeA.CallOn(ref, "bump")
			if err != nil {
				t.Fatalf("bump: %v", err)
			}
			next++
			if got.(int64) != next {
				t.Fatalf("bump returned %v, want %d (state lost across adaptation)", got, next)
			}
		}
	}

	// Two confirmation windows of one-sided traffic.
	drive(30)
	adA.Tick()
	adB.Tick()
	drive(30)
	adA.Tick()
	adB.Tick()

	// B must have migrated the object to A — no manual Migrate call.
	var migrations int
	for _, d := range decisionsOf(nodeB) {
		if d.Kind.String() == "migrate" && d.Executed {
			migrations++
			if d.Endpoint != epA {
				t.Fatalf("migrated to %s, want %s", d.Endpoint, epA)
			}
		}
	}
	if migrations != 1 {
		t.Fatalf("executed migrations on B = %d, want 1; log: %+v", migrations, decisionsOf(nodeB))
	}
	if in := nodeA.Stats().MigrationsIn; in != 1 {
		t.Fatalf("node A migrations-in = %d, want 1", in)
	}

	// One call pays the forwarding hop and carries the redirect; after
	// that the caller's proxy must reach the object without B.
	drive(1)
	beforeB := nodeB.Stats().RemoteCallsIn
	drive(20)
	if afterB := nodeB.Stats().RemoteCallsIn; afterB != beforeB {
		t.Fatalf("calls still flow through B after redirect: %d -> %d", beforeB, afterB)
	}

	// A's adapter must have flipped the class policy local (the
	// class-pull rule), so new instances stop being mis-placed.
	var flips int
	for _, d := range decisionsOf(nodeA) {
		if d.Kind.String() == "place-class" && d.Executed {
			flips++
			if d.Class != "Counter" || d.Endpoint != "" {
				t.Fatalf("unexpected flip: %+v", d)
			}
		}
	}
	if flips != 1 {
		t.Fatalf("executed class flips on A = %d, want 1; log: %+v", flips, decisionsOf(nodeA))
	}
	made2, err := nodeA.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	if cn := made2.(*Ref).ClassName(); !strings.HasSuffix(cn, "_O_Local") {
		t.Fatalf("post-flip creation is %s, want a local instance", cn)
	}

	// Converged steady state: more traffic and more windows on both
	// adapters must not move anything again.
	for w := 0; w < 4; w++ {
		drive(30)
		adA.Tick()
		adB.Tick()
	}
	for _, d := range append(decisionsOf(nodeA), decisionsOf(nodeB)...) {
		if d.Kind.String() == "migrate" && d.Executed && d.Endpoint != epA {
			t.Fatalf("ping-pong: %+v", d)
		}
	}
	var total int
	for _, d := range append(decisionsOf(nodeA), decisionsOf(nodeB)...) {
		if d.Kind.String() == "migrate" && d.Executed {
			total++
		}
	}
	if total != 1 {
		t.Fatalf("object migrated %d times in total, want exactly 1", total)
	}
}

// decisionsOf returns the adapter decisions in n's control log.
func decisionsOf(n *Node) []AdaptDecision {
	var ds []AdaptDecision
	for _, e := range n.Events() {
		if e.Adapt != nil {
			ds = append(ds, *e.Adapt)
		}
	}
	return ds
}

// TestAdapterDecisionsReachSnapshot: every decision lands in the node's
// control log, which the "events" introspection section serves — also
// on a node with tracing disabled, and whether or not the caller set an
// OnDecision observer.
func TestAdapterDecisionsReachSnapshot(t *testing.T) {
	prog, err := CompileString(adaptSource)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	nodeA, _ := traceNode(t, tr, "a", NetProfile{})
	nodeB, err := tr.NewNode(NodeConfig{Name: "b", Tracing: TracingConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nodeB.Close() })
	epB, err := nodeB.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	var observed []AdaptDecision
	adB := nodeB.NewAdapter(AdaptConfig{Threshold: 0.6, MinCalls: 10, Confirm: 2,
		OnDecision: func(d AdaptDecision) { observed = append(observed, d) }})

	if err := nodeA.PlaceClass("Counter", epB); err != nil {
		t.Fatal(err)
	}
	made, err := nodeA.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 30; i++ {
			if _, err := nodeA.CallOn(made.(*Ref), "bump"); err != nil {
				t.Fatal(err)
			}
		}
		adB.Tick()
	}

	out, err := nodeB.IntrospectJSON("events", "")
	if err != nil {
		t.Fatal(err)
	}
	var served []struct {
		Seq   uint64 `json:"seq"`
		Adapt *struct {
			Kind     string `json:"kind"`
			GUID     string `json:"guid"`
			Endpoint string `json:"endpoint"`
			Executed bool   `json:"executed"`
		} `json:"adapt"`
	}
	if err := json.Unmarshal([]byte(out), &served); err != nil {
		t.Fatalf("events section: %v\n%s", err, out)
	}
	if len(observed) == 0 || len(served) != len(observed) {
		t.Fatalf("events section lists %d entries for %d decisions:\n%s", len(served), len(observed), out)
	}
	var migrated bool
	for i, e := range served {
		d := observed[i]
		if e.Adapt == nil || e.Adapt.Kind != d.Kind.String() || e.Adapt.GUID != d.GUID ||
			e.Adapt.Executed != d.Executed || e.Seq != uint64(i+1) {
			t.Fatalf("entry %d = %+v, want decision %+v", i, e, d)
		}
		migrated = migrated || (e.Adapt.Kind == "migrate" && e.Adapt.Executed && e.Adapt.Endpoint != "")
	}
	if !migrated {
		t.Fatalf("events section has no executed migration:\n%s", out)
	}
}
