package rafda

import (
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
	for _, d := range adB.Decisions() {
		if d.Kind.String() == "migrate" && d.Executed {
			migrations++
			if d.Endpoint != epA {
				t.Fatalf("migrated to %s, want %s", d.Endpoint, epA)
			}
		}
	}
	if migrations != 1 {
		t.Fatalf("executed migrations on B = %d, want 1; log: %+v", migrations, adB.Decisions())
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
	for _, d := range adA.Decisions() {
		if d.Kind.String() == "place-class" && d.Executed {
			flips++
			if d.Class != "Counter" || d.Endpoint != "" {
				t.Fatalf("unexpected flip: %+v", d)
			}
		}
	}
	if flips != 1 {
		t.Fatalf("executed class flips on A = %d, want 1; log: %+v", flips, adA.Decisions())
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
	for _, d := range append(adA.Decisions(), adB.Decisions()...) {
		if d.Kind.String() == "migrate" && d.Executed && d.Endpoint != epA {
			t.Fatalf("ping-pong: %+v", d)
		}
	}
	var total int
	for _, d := range append(adA.Decisions(), adB.Decisions()...) {
		if d.Kind.String() == "migrate" && d.Executed {
			total++
		}
	}
	if total != 1 {
		t.Fatalf("object migrated %d times in total, want exactly 1", total)
	}
}

// TestAdapterDecisionsLeaveSpans: every decision lands in the node's
// flight recorder as an adapt span, whether or not the caller set an
// OnDecision observer.
func TestAdapterDecisionsLeaveSpans(t *testing.T) {
	prog, err := CompileString(adaptSource)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	nodeA, _ := traceNode(t, tr, "a", NetProfile{})
	nodeB, epB := traceNode(t, tr, "b", NetProfile{})
	adB := nodeB.NewAdapter(AdaptConfig{Threshold: 0.6, MinCalls: 10, Confirm: 2})

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
	decisions := adB.Decisions()
	var adaptSpans int
	for _, s := range ringUnion(t, nodeB) {
		if s.Kind == "adapt" {
			adaptSpans++
		}
	}
	if len(decisions) == 0 || adaptSpans != len(decisions) {
		t.Fatalf("%d adapt spans for %d decisions: %+v", adaptSpans, len(decisions), decisions)
	}
	oneSpan(t, ringUnion(t, nodeB), "migrate span", func(s tSpan) bool {
		return s.Kind == "adapt" && s.Name == "migrate" && s.Err == ""
	})
}
