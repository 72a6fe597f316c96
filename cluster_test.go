package rafda

import (
	"strings"
	"testing"

	"rafda/internal/transform"
)

const clusterSource = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// clusterTrio builds three rrp nodes joined into one cluster, with the
// multi-hop proposer rule enabled only where propose[i] says so.  All
// coordination is driven by manual Ticks — no timed loops — and with a
// fan-out of 3 every round reaches every peer, so every test on it is
// deterministic.
func clusterTrio(t *testing.T, propose [3]bool) (nodes [3]*Node, clusters [3]*Cluster, eps [3]string) {
	t.Helper()
	prog, err := CompileString(clusterSource)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	names := [3]string{"a", "b", "c"}
	for i := range nodes {
		n, err := tr.NewNode(NodeConfig{Name: names[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		ep, err := n.Serve("rrp", "")
		if err != nil {
			t.Fatal(err)
		}
		var seeds []string
		if i > 0 {
			seeds = []string{eps[0]}
		}
		cl, err := n.JoinCluster(ClusterConfig{Seeds: seeds, Fanout: 3, Propose: propose[i]})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], clusters[i], eps[i] = n, cl, ep
	}
	return nodes, clusters, eps
}

func tickRounds(rounds int, clusters [3]*Cluster) {
	for i := 0; i < rounds; i++ {
		for _, cl := range clusters {
			cl.Tick()
		}
	}
}

// clusterEventsOf returns the cluster events in n's control log.
func clusterEventsOf(n *Node) []ClusterEvent {
	var evs []ClusterEvent
	for _, e := range n.Events() {
		if e.Cluster != nil {
			evs = append(evs, *e.Cluster)
		}
	}
	return evs
}

// refGUID digs the exported GUID out of a proxy handle (test-only; real
// operators read GUIDs from telemetry and cluster events).
func refGUID(t *testing.T, ref *Ref) string {
	t.Helper()
	if ref.v.O == nil {
		t.Fatal("nil ref")
	}
	g := ref.v.O.Get(transform.ProxyFieldGUID).S
	if g == "" {
		t.Fatalf("handle %s holds no GUID", ref.ClassName())
	}
	return g
}

// TestClusterConflictingIntentsConverge is the acceptance scenario: the
// object lives on b while a and c simultaneously claim it with
// different evidence strength.  The cluster must reconcile both intents
// to the single deterministic winner (a, higher priority), the home
// must execute exactly one migration, and re-asserting the losing
// intent afterwards must not move the object again — no ping-pong,
// one stable home.
func TestClusterConflictingIntentsConverge(t *testing.T) {
	nodes, clusters, eps := clusterTrio(t, [3]bool{false, false, false})
	a, b, c := nodes[0], nodes[1], nodes[2]
	tickRounds(2, clusters) // membership settles

	// a creates the contested object on b.
	if err := a.PlaceClass("Counter", eps[1]); err != nil {
		t.Fatal(err)
	}
	made, err := a.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)
	guid := refGUID(t, ref)

	// Conflicting claims: a with priority 60, c with priority 55.
	if ok, why := clusters[0].ProposeMigration(guid, eps[0], 60, "a's affinity"); !ok {
		t.Fatalf("a's intent refused: %s", why)
	}
	if ok, why := clusters[2].ProposeMigration(guid, eps[2], 55, "c's affinity"); !ok {
		t.Fatalf("c's intent refused: %s", why)
	}
	tickRounds(6, clusters)

	if out := b.Stats().MigrationsOut; out != 1 {
		t.Fatalf("home executed %d migrations, want exactly 1; events: %+v", out, clusterEventsOf(nodes[1]))
	}
	if in := a.Stats().MigrationsIn; in != 1 {
		t.Fatalf("winner a received %d migrations, want 1", in)
	}
	if in := c.Stats().MigrationsIn; in != 0 {
		t.Fatalf("loser c received %d migrations, want 0", in)
	}

	// The loser re-asserts, louder: the cooldown and the directory must
	// hold the single stable home.
	clusters[2].ProposeMigration(guid, eps[2], 99, "c insists")
	tickRounds(6, clusters)
	if total := a.Stats().MigrationsIn + b.Stats().MigrationsIn + c.Stats().MigrationsIn; total != 1 {
		t.Fatalf("object moved again (total migrations-in %d, want 1)", total)
	}

	// Every member's directory agrees on the home, and the object still
	// works from the original handle with state intact.
	if _, ep, ok := clusters[2].ResolveObject(guid); !ok || ep != eps[0] {
		t.Fatalf("c resolves %s to %q (ok=%v), want %s", guid, ep, ok, eps[0])
	}
	got, err := a.CallOn(ref, "bump")
	if err != nil || got.(int64) != 1 {
		t.Fatalf("bump after convergence: %v %v", got, err)
	}
}

// TestClusterMultiHopMigrationConverges is the multi-hop acceptance
// scenario, fully deterministic: the hot object lives on b, every call
// comes from c, and only a — which neither hosts nor calls it — may
// propose.  Gossip must carry b's affinity rollups to a, a must propose
// the b→c migration (proposer ≠ source ≠ target), b must execute it
// after reconciliation, and c's stale proxy must resolve the new home
// through the directory.  Further traffic and rounds must not move the
// object again.
func TestClusterMultiHopMigrationConverges(t *testing.T) {
	nodes, clusters, eps := clusterTrio(t, [3]bool{true, false, false})
	b, c := nodes[1], nodes[2]
	tickRounds(2, clusters)

	// c creates the hot object on b (mis-placement) and hammers it.
	if err := c.PlaceClass("Counter", eps[1]); err != nil {
		t.Fatal(err)
	}
	made, err := c.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)
	guid := refGUID(t, ref)
	if !strings.Contains(ref.ClassName(), "Proxy") {
		t.Fatalf("mis-placed object should start as a proxy, is %s", ref.ClassName())
	}

	next := int64(0)
	drive := func(calls int) {
		t.Helper()
		for i := 0; i < calls; i++ {
			got, err := c.CallOn(ref, "bump")
			if err != nil {
				t.Fatalf("bump: %v", err)
			}
			next++
			if got.(int64) != next {
				t.Fatalf("bump returned %v, want %d (state lost across migration)", got, next)
			}
		}
	}

	// Traffic + coordination rounds until the object moves: b's rollup
	// gossips out, a proposes, the intent settles, b executes.
	for round := 0; round < 10 && b.Stats().MigrationsOut == 0; round++ {
		drive(30)
		tickRounds(1, clusters)
	}
	if out := b.Stats().MigrationsOut; out != 1 {
		t.Fatalf("b executed %d migrations, want 1; a events: %+v", out, clusterEventsOf(nodes[0]))
	}
	if in := c.Stats().MigrationsIn; in != 1 {
		t.Fatalf("c received %d migrations, want 1", in)
	}

	// Multi-hop provenance: the executed intent's proposer is a.
	var migrated bool
	for _, e := range clusterEventsOf(nodes[1]) {
		if e.Kind == "migrate" && e.GUID == guid {
			if e.Peer != "a" {
				t.Fatalf("migration proposed by %q, want a (multi-hop: proposer != source != target)", e.Peer)
			}
			if e.To != eps[2] {
				t.Fatalf("migration targeted %s, want c at %s", e.To, eps[2])
			}
			migrated = true
		}
	}
	if !migrated {
		t.Fatalf("no migrate event on b: %+v", clusterEventsOf(nodes[1]))
	}

	// One call may pay the forwarding hop; after it, c reaches its own
	// copy without touching b (directory-collapsed, then self-collapse).
	drive(1)
	beforeB := b.Stats().RemoteCallsIn
	drive(20)
	if afterB := b.Stats().RemoteCallsIn; afterB != beforeB {
		t.Fatalf("calls still flow through b after convergence: %d -> %d", beforeB, afterB)
	}

	// Converged steady state: more traffic, more rounds, no more moves.
	for w := 0; w < 5; w++ {
		drive(30)
		tickRounds(1, clusters)
	}
	if total := b.Stats().MigrationsOut + c.Stats().MigrationsOut + nodes[0].Stats().MigrationsOut; total != 1 {
		t.Fatalf("object migrated %d times in total, want exactly 1 (ping-pong)", total)
	}
}

// TestClusterAdapterDelegatesIntent: a clustered node's adapt engine
// must delegate its confirmed migration as an intent (propose →
// reconcile → act by the home) rather than acting unilaterally — and
// the migration must still land, moving the object to the engine's
// chosen destination.
func TestClusterAdapterDelegatesIntent(t *testing.T) {
	nodes, clusters, eps := clusterTrio(t, [3]bool{false, false, false})
	a, b := nodes[0], nodes[1]
	tickRounds(2, clusters)

	// Mis-place on b; traffic from a; b's ADAPTER (not a proposer)
	// discovers the affinity.
	adB := b.NewAdapter(AdaptConfig{Threshold: 0.6, MinCalls: 10, Confirm: 2, Budget: 2})
	if err := a.PlaceClass("Counter", eps[1]); err != nil {
		t.Fatal(err)
	}
	made, err := a.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)

	drive := func(calls int) {
		t.Helper()
		for i := 0; i < calls; i++ {
			if _, err := a.CallOn(ref, "bump"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two confirm windows produce the delegated decision; cluster rounds
	// then reconcile and execute it.
	drive(30)
	adB.Tick()
	drive(30)
	adB.Tick()

	var delegated bool
	for _, d := range decisionsOf(b) {
		if d.Kind.String() == "migrate" {
			if d.Executed {
				t.Fatalf("clustered engine executed unilaterally: %+v", d)
			}
			if d.Delegated {
				delegated = true
			}
		}
	}
	if !delegated {
		t.Fatalf("no delegated migration decision: %+v", decisionsOf(b))
	}
	tickRounds(4, clusters)
	if in := a.Stats().MigrationsIn; in != 1 {
		t.Fatalf("delegated intent did not land on a: migrations-in %d; events %+v", in, clusterEventsOf(nodes[1]))
	}
}

// TestPlaceClassAtOwnEndpointIsLocal: placing a class at the node's own
// endpoint is local placement, so creations build plain local instances
// instead of looping an OpCreate (an export, a dedup entry, a server
// span) through the node's own server.
func TestPlaceClassAtOwnEndpointIsLocal(t *testing.T) {
	prog, err := CompileString(clusterSource)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.NewNode(NodeConfig{Name: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ep, err := n.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PlaceClass("Counter", ep); err != nil {
		t.Fatal(err)
	}
	made, err := n.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	ref := made.(*Ref)
	if got, err := n.CallOn(ref, "bump"); err != nil || got.(int64) != 1 {
		t.Fatalf("bump: %v %v", got, err)
	}
	if st := n.Stats(); st.Creates != 0 || st.RemoteCallsIn != 0 {
		t.Fatalf("own-endpoint placement went through the server: %+v", st)
	}
	if cn := ref.ClassName(); !strings.HasSuffix(cn, "_O_Local") {
		t.Fatalf("handle is %s, want the local implementation", cn)
	}
}

// TestClusterPlacementsAnnounceAndFollow: class placements made on one
// member — by an operator's PlaceClass or by its adapter's flip — reach
// every other member's policy table through the directory, and a
// placement announced at a member's own endpoint lands there as local.
func TestClusterPlacementsAnnounceAndFollow(t *testing.T) {
	nodes, clusters, eps := clusterTrio(t, [3]bool{})
	a, b, c := nodes[0], nodes[1], nodes[2]
	tickRounds(2, clusters)
	placedAt := func(n *Node) string { return n.n.ClassPlacement("Counter") }

	// Operator placement on a at b's endpoint: a and c place remotely at
	// b, b itself locally.
	if err := a.PlaceClass("Counter", eps[1]); err != nil {
		t.Fatal(err)
	}
	tickRounds(2, clusters)
	for i, want := range [3]string{eps[1], "", eps[1]} {
		if got := placedAt(nodes[i]); got != want {
			t.Fatalf("node %d places Counter at %q, want %q", i, got, want)
		}
	}

	// a's traffic all goes to b, so a's adapter pulls the class home
	// (class-pull, applied through PlaceClassIf); the flip is a new epoch
	// c follows too.
	adA := a.NewAdapter(AdaptConfig{Threshold: 0.6, MinCalls: 10, Confirm: 2})
	made, err := a.Call("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 30; i++ {
			if _, err := a.CallOn(made.(*Ref), "bump"); err != nil {
				t.Fatal(err)
			}
		}
		adA.Tick()
	}
	if got := placedAt(a); got != "" {
		t.Fatalf("a's adapter did not flip Counter local (at %q); log %+v", got, decisionsOf(a))
	}
	tickRounds(2, clusters)
	if got := placedAt(c); got != "" {
		t.Fatalf("c did not follow a's flip: Counter at %q", got)
	}
	if got := placedAt(b); got != "" {
		t.Fatalf("b places Counter at %q after the flip, want local", got)
	}
}
