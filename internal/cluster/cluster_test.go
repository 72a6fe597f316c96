package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rafda/internal/wire"
)

// fakeNet is an in-memory cluster: endpoint -> coordinator, with
// per-node fake runtimes that execute migrations by bookkeeping.
type fakeNet struct {
	mu    sync.Mutex
	nodes map[string]*Coordinator // by endpoint
	// down marks endpoints as partitioned: calls to them fail, so the
	// node is unreachable rather than merely quiet.
	down map[string]bool
	// owners maps guid -> endpoint currently hosting it live.
	owners map[string]string
	// guidSeq numbers re-exported GUIDs after migrations.
	guidSeq int
	// migrations records executed moves in order.
	migrations []string
}

func newFakeNet() *fakeNet {
	return &fakeNet{nodes: map[string]*Coordinator{}, down: map[string]bool{}, owners: map[string]string{}}
}

type fakeRuntime struct {
	net     *fakeNet
	self    string
	samples []wire.ObjAffinity // returned once per AffinitySamples call
	applied map[string]string  // class placements applied locally
	// promoted ("guid/class/selfGUID") and demoted (guid) record the
	// replica failover calls in order.
	promoted, demoted []string

	mu     sync.Mutex
	events []Event // every event RecordEvent received, in order
}

func (r *fakeRuntime) Call(endpoint string, req *wire.Request) (*wire.Response, error) {
	r.net.mu.Lock()
	c := r.net.nodes[endpoint]
	cut := r.net.down[endpoint] || r.net.down[r.self]
	r.net.mu.Unlock()
	if c == nil {
		return nil, fmt.Errorf("no node at %s", endpoint)
	}
	if cut {
		return nil, fmt.Errorf("partition: %s unreachable from %s", endpoint, r.self)
	}
	if req.Op != wire.OpGossip {
		return nil, fmt.Errorf("unexpected op %v", req.Op)
	}
	return &wire.Response{ID: req.ID, Cluster: c.HandleGossip(req.Cluster)}, nil
}

func (r *fakeRuntime) MigrateGUID(guid, endpoint string) (wire.RemoteRef, error) {
	r.net.mu.Lock()
	if r.net.owners[guid] != r.self {
		r.net.mu.Unlock()
		return wire.RemoteRef{}, fmt.Errorf("%s does not own %s", r.self, guid)
	}
	r.net.guidSeq++
	newGUID := fmt.Sprintf("%s'm%d", guid, r.net.guidSeq)
	delete(r.net.owners, guid)
	r.net.owners[newGUID] = endpoint
	r.net.migrations = append(r.net.migrations, fmt.Sprintf("%s:%s->%s", guid, r.self, endpoint))
	self := r.net.nodes[r.self]
	r.net.mu.Unlock()
	ref := wire.RemoteRef{GUID: newGUID, Endpoint: endpoint, Proto: "rrp", Target: "C"}
	// Mirror the real node runtime: a successful migration is published
	// into the home's directory.
	self.RecordMove(guid, "C", ref)
	return ref, nil
}

func (r *fakeRuntime) OwnsGUID(guid string) bool {
	r.net.mu.Lock()
	defer r.net.mu.Unlock()
	return r.net.owners[guid] == r.self
}

func (r *fakeRuntime) AffinitySamples(max int) []wire.ObjAffinity {
	s := r.samples
	r.samples = nil
	if len(s) > max {
		s = s[:max]
	}
	return s
}

func (r *fakeRuntime) ObservePeerRTT(string, time.Duration) {}

func (r *fakeRuntime) ApplyClassPlacement(class, endpoint string) error {
	if r.applied == nil {
		r.applied = map[string]string{}
	}
	r.applied[class] = endpoint
	return nil
}

func (r *fakeRuntime) Promote(guid, class, selfGUID string) {
	r.promoted = append(r.promoted, guid+"/"+class+"/"+selfGUID)
}

func (r *fakeRuntime) Demote(guid string) { r.demoted = append(r.demoted, guid) }

func (r *fakeRuntime) RecordEvent(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// recorded returns the events RecordEvent received so far.
func (r *fakeRuntime) recorded() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// addNode builds a coordinator + fake runtime pair on net.
func (net *fakeNet) addNode(t *testing.T, id string, cfg Config) (*Coordinator, *fakeRuntime) {
	t.Helper()
	rt := &fakeRuntime{net: net, self: "rrp://" + id}
	cfg.ID = id
	cfg.Self = rt.self
	cfg.Runtime = rt
	if cfg.Fanout == 0 {
		cfg.Fanout = 8 // gossip to everyone: deterministic full propagation
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	net.nodes[rt.self] = c
	net.mu.Unlock()
	return c, rt
}

// joinAll joins every node through the first one's endpoint.
func joinAll(t *testing.T, cs ...*Coordinator) {
	t.Helper()
	for _, c := range cs[1:] {
		if err := c.Join([]string{cs[0].Self()}); err != nil {
			t.Fatal(err)
		}
	}
}

// tickAll steps every coordinator n rounds.
func tickAll(n int, cs ...*Coordinator) {
	for i := 0; i < n; i++ {
		for _, c := range cs {
			c.Tick()
		}
	}
}

func TestMembershipConvergesAndSuspects(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)
	tickAll(2, a, b, c)

	for _, co := range []*Coordinator{a, b, c} {
		peers := co.Peers()
		if len(peers) != 2 {
			t.Fatalf("%s sees %d peers, want 2: %+v", co.ID(), len(peers), peers)
		}
		for _, p := range peers {
			if p.Health != "alive" {
				t.Fatalf("%s sees %s as %s", co.ID(), p.ID, p.Health)
			}
		}
	}

	// c stops ticking: its heartbeat freezes and a/b walk it down the
	// suspicion ladder.
	tickAll(suspectAfter+1, a, b)
	if h := healthOf(a, "c"); h != "suspect" {
		t.Fatalf("c should be suspect on a, is %s", h)
	}
	tickAll(deadAfter-suspectAfter, a, b)
	if h := healthOf(a, "c"); h != "dead" {
		t.Fatalf("c should be dead on a, is %s", h)
	}

	// c comes back: one gossip from it resurrects the membership.
	c.Tick()
	tickAll(1, a, b, c)
	if h := healthOf(a, "c"); h != "alive" {
		t.Fatalf("c should have recovered on a, is %s", h)
	}
}

func healthOf(c *Coordinator, id string) string {
	for _, p := range c.Peers() {
		if p.ID == id {
			return p.Health
		}
	}
	return "absent"
}

func TestLeaveSkipsSuspicion(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	joinAll(t, a, b)
	tickAll(1, a, b)
	b.Leave()
	if h := healthOf(a, "b"); h != "dead" {
		t.Fatalf("left peer should be dead immediately, is %s", h)
	}
}

func TestDirectoryMergeAndChainCollapse(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)

	// Object moves a->b then (under its new GUID) b->c; entries chain.
	a.RecordMove("g1", "C", wire.RemoteRef{GUID: "g2", Endpoint: b.Self(), Proto: "rrp", Target: "C"})
	b.RecordMove("g2", "C", wire.RemoteRef{GUID: "g3", Endpoint: c.Self(), Proto: "rrp", Target: "C"})
	tickAll(3, a, b, c)

	for _, co := range []*Coordinator{a, b, c} {
		ref, ok := co.Resolve("g1")
		if !ok || ref.Endpoint != c.Self() || ref.GUID != "g3" {
			t.Fatalf("%s resolves g1 to %+v (ok=%v), want g3@%s", co.ID(), ref, ok, c.Self())
		}
	}
}

func TestDirectoryVersionWins(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	joinAll(t, a, b)

	// Two successive moves recorded at a; b must converge on the later
	// version even if gossip replays the older entry afterwards.
	a.RecordMove("g", "C", wire.RemoteRef{GUID: "gx", Endpoint: "rrp://x", Proto: "rrp"})
	old := a.Directory()[0]
	a.RecordMove("g", "C", wire.RemoteRef{GUID: "gy", Endpoint: "rrp://y", Proto: "rrp"})
	tickAll(2, a, b)
	b.HandleGossip(&wire.ClusterPayload{
		From: wire.PeerDigest{ID: "a", Endpoint: a.Self(), Heartbeat: 1},
		Dir:  []wire.DirEntry{old},
	})
	ref, ok := b.Resolve("g")
	if !ok || ref.GUID != "gy" {
		t.Fatalf("stale replay won: %+v ok=%v", ref, ok)
	}
}

func TestConflictingIntentsReconcileToOneWinner(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)
	net.owners["g"] = b.Self() // b hosts the contested object

	// a and c both want the object, with different evidence strength.
	if ok, why := a.Submit(wire.Intent{GUID: "g", Class: "C", From: b.Self(), To: a.Self(), Priority: 60}); !ok {
		t.Fatalf("a's intent refused: %s", why)
	}
	if ok, why := c.Submit(wire.Intent{GUID: "g", Class: "C", From: b.Self(), To: c.Self(), Priority: 55}); !ok {
		t.Fatalf("c's intent refused: %s", why)
	}
	tickAll(6, a, b, c)

	net.mu.Lock()
	migs := append([]string(nil), net.migrations...)
	net.mu.Unlock()
	if len(migs) != 1 {
		t.Fatalf("want exactly 1 migration, got %v", migs)
	}
	if migs[0] != "g:"+b.Self()+"->"+a.Self() {
		t.Fatalf("wrong winner executed: %v", migs[0])
	}

	// More rounds and a re-assertion of the losing intent must not move
	// it again (cooldown + directory-satisfied checks).
	c.Submit(wire.Intent{GUID: "g", Class: "C", From: b.Self(), To: c.Self(), Priority: 99})
	tickAll(6, a, b, c)
	net.mu.Lock()
	n := len(net.migrations)
	net.mu.Unlock()
	if n != 1 {
		t.Fatalf("object ping-ponged: %v", net.migrations)
	}

	// The canonical ping-pong: the NEW home (a) is asked — on its own
	// coordinator, where it alone would execute — to send the object
	// straight back.  The cooldown must be cluster-wide (learned from
	// the gossiped directory entry), not just local to the node that
	// executed the move.
	net.mu.Lock()
	var newGUID string
	for g, owner := range net.owners {
		if owner == a.Self() {
			newGUID = g
		}
	}
	net.mu.Unlock()
	if newGUID == "" {
		t.Fatal("migrated object has no new owner")
	}
	if ok, why := a.Submit(wire.Intent{GUID: newGUID, Class: "C", From: a.Self(), To: c.Self(), Priority: 999}); ok {
		t.Fatal("reverse intent accepted inside the cooldown window")
	} else if why == "" {
		t.Fatal("reverse intent refused without a reason")
	}
	tickAll(4, a, b, c)
	net.mu.Lock()
	n = len(net.migrations)
	net.mu.Unlock()
	if n != 1 {
		t.Fatalf("reverse migration executed inside cooldown: %v", net.migrations)
	}
}

func TestEqualPriorityTieBreaksOnProposer(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	joinAll(t, a, b)
	in1 := wire.Intent{GUID: "g", From: "rrp://x", To: "rrp://t1", Proposer: "zeta", Priority: 10}
	in2 := wire.Intent{GUID: "g", From: "rrp://x", To: "rrp://t2", Proposer: "alpha", Priority: 10}
	a.Submit(in1)
	a.Submit(in2)
	for _, in := range a.Intents() {
		if in.Proposer != "alpha" {
			t.Fatalf("tie-break picked %+v", in)
		}
	}
	// Order independence: b sees them reversed.
	b.Submit(in2)
	b.Submit(in1)
	for _, in := range b.Intents() {
		if in.Proposer != "alpha" {
			t.Fatalf("tie-break order-dependent: %+v", in)
		}
	}
}

func TestMultiHopProposalFlowsFromRollup(t *testing.T) {
	net := newFakeNet()
	// Only a proposes; b hosts; c is the dominant caller.
	a, _ := net.addNode(t, "a", Config{Propose: true})
	b, rtb := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)
	net.owners["g"] = b.Self()

	// b's telemetry rollup: 90% of g's calls come from c.
	feed := func() {
		rtb.samples = []wire.ObjAffinity{{
			GUID: "g", Class: "C", Calls: 100,
			Callers: []wire.EndpointCount{
				{Endpoint: c.Self(), Calls: 90},
				{Endpoint: a.Self(), Calls: 10},
			},
		}}
	}
	for i := 0; i < 8; i++ {
		feed()
		tickAll(1, b, a, c)
	}

	net.mu.Lock()
	migs := append([]string(nil), net.migrations...)
	net.mu.Unlock()
	if len(migs) != 1 || migs[0] != "g:"+b.Self()+"->"+c.Self() {
		t.Fatalf("multi-hop migration not executed exactly once: %v", migs)
	}
	// The proposer must be a (multi-hop: proposer != source != target).
	var proposed bool
	for _, e := range rtb.recorded() {
		if e.Kind == "migrate" && e.GUID == "g" {
			if e.Peer != "a" {
				t.Fatalf("winning intent proposed by %q, want a", e.Peer)
			}
			proposed = true
		}
	}
	if !proposed {
		t.Fatal("no migrate event on b")
	}
}

func TestClassPlacementFollows(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, rtb := net.addNode(t, "b", Config{})
	joinAll(t, a, b)
	a.RecordClassPlacement("C", "rrp://somewhere")
	tickAll(2, a, b)
	if rtb.applied["C"] != "rrp://somewhere" {
		t.Fatalf("b did not follow the class placement: %+v", rtb.applied)
	}
	// The epoch is applied once, not on every gossip round.
	rtb.applied = nil
	tickAll(2, a, b)
	if len(rtb.applied) != 0 {
		t.Fatalf("placement re-applied: %+v", rtb.applied)
	}
}

func TestSubmitRefusalsExplain(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	if ok, why := a.Submit(wire.Intent{GUID: "", To: "rrp://x"}); ok || why == "" {
		t.Fatal("malformed intent accepted")
	}
	if ok, why := a.Submit(wire.Intent{GUID: "g", From: a.Self(), To: a.Self()}); ok || why == "" {
		t.Fatal("no-op intent accepted")
	}
}

// TestIntentsExpireWhenOriginStops: intents and rollups are
// origin-gossiped, so once the proposer stops re-asserting (evidence
// gone, or the proposer died) every member's copy ages out by TTL —
// peers must not keep each other's copies alive by echoing them.
func TestIntentsExpireWhenOriginStops(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)
	tickAll(1, a, b, c)

	if ok, why := a.Submit(wire.Intent{GUID: "g", From: "rrp://x", To: "rrp://y", Priority: 5}); !ok {
		t.Fatalf("refused: %s", why)
	}
	tickAll(1, a, b, c)
	if len(b.Intents()) != 1 || len(c.Intents()) != 1 {
		t.Fatalf("intent did not disseminate: b=%d c=%d", len(b.Intents()), len(c.Intents()))
	}
	// The proposer never re-asserts; everyone keeps gossiping.  The
	// origin's own copy gossips until it ages out, and each peer's copy
	// ages out one TTL after the last copy it received.  (No member owns
	// g, so the intent never executes.)
	tickAll(2*intentTTL+1, a, b, c)
	for _, co := range []*Coordinator{a, b, c} {
		if n := len(co.Intents()); n != 0 {
			t.Fatalf("%s still holds %d intents after the origin went quiet (echo keeps TTL alive)", co.ID(), n)
		}
	}
}

// replicaSet builds the canonical test set: a primaries g with replica
// copies exported as rb@b and rc@c.
func replicaSet(primary string) wire.ReplicaSet {
	return wire.ReplicaSet{
		GUID: "g", Class: "C", Primary: primary, Epoch: 1,
		Replicas: []wire.ReplicaInfo{
			{Endpoint: "rrp://b", GUID: "rb"},
			{Endpoint: "rrp://c", GUID: "rc"},
		},
	}
}

func TestReplicaSetDisseminatesAndRoutesReads(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	d, _ := net.addNode(t, "d", Config{}) // pure caller: no replica
	joinAll(t, a, b, c, d)
	a.RecordReplicaSet(replicaSet(a.Self()))
	tickAll(2, a, b, c, d)

	// Replica holders serve reads locally under a live lease.
	for _, co := range []*Coordinator{b, c} {
		rt, ok := co.ReadTarget("g")
		if !ok || !rt.Local || rt.Endpoint != co.Self() {
			t.Fatalf("%s read route = %+v (ok=%v), want local replica", co.ID(), rt, ok)
		}
		if !co.LeaseValid("g") {
			t.Fatalf("%s lease invalid right after direct primary gossip", co.ID())
		}
	}
	// A pure caller routes to a live replica, not the primary.
	rt, ok := d.ReadTarget("g")
	if !ok || rt.Local || rt.Endpoint == a.Self() {
		t.Fatalf("pure caller route = %+v (ok=%v), want a remote replica", rt, ok)
	}
	if rt.GUID != "rb" && rt.GUID != "rc" {
		t.Fatalf("pure caller routed to unknown replica GUID %q", rt.GUID)
	}
	// The primary itself reports no self-replica route.
	if art, ok := a.ReadTarget("g"); !ok || art.Local {
		t.Fatalf("primary route = %+v (ok=%v)", art, ok)
	}

	// Epoch advances ride the same merge.
	a.UpdateReplicaEpoch("g", 7)
	tickAll(2, a, b, c, d)
	if rt, _ := b.ReadTarget("g"); rt.Epoch != 7 {
		t.Fatalf("epoch did not disseminate: %+v", rt)
	}
}

// TestLeaseNeedsDirectPrimaryContact pins the lease soundness rule: a
// replica partitioned from its primary must stop serving reads after
// leaseTicks even while third parties keep relaying the set to it.
func TestLeaseNeedsDirectPrimaryContact(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	c, _ := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)
	a.RecordReplicaSet(replicaSet(a.Self()))
	tickAll(1, a, b, c)
	if !b.LeaseValid("g") {
		t.Fatal("lease not granted by direct primary gossip")
	}

	// a partitions away; b and c keep gossiping the set at each other,
	// past the lease but short of declaring a dead (which would promote).
	net.mu.Lock()
	net.down[a.Self()] = true
	net.mu.Unlock()
	tickAll(leaseTicks+2, b, c)
	if b.LeaseValid("g") {
		t.Fatal("relayed gossip renewed the lease: stale reads now possible")
	}
	if rt, ok := b.ReadTarget("g"); !ok || rt.Local {
		t.Fatalf("expired-lease replica still routes reads to itself: %+v", rt)
	}

	// Direct contact from the primary restores it.
	net.mu.Lock()
	net.down[a.Self()] = false
	net.mu.Unlock()
	tickAll(1, a, b, c)
	if !b.LeaseValid("g") {
		t.Fatal("lease not renewed once the primary resumed")
	}
}

// TestDeadPrimaryPromotesSmallestReplica drives the failover path: the
// primary dies, the lexicographically smallest live replica endpoint
// promotes itself (Version+1, Runtime.Promote called), the other replica
// follows the new primary and regains a lease from it, and the deposed
// primary is told to stand down when it reconnects.
func TestDeadPrimaryPromotesSmallestReplica(t *testing.T) {
	net := newFakeNet()
	a, rta := net.addNode(t, "a", Config{})
	b, rtb := net.addNode(t, "b", Config{})
	c, rtc := net.addNode(t, "c", Config{})
	joinAll(t, a, b, c)
	a.RecordReplicaSet(replicaSet(a.Self()))
	tickAll(2, a, b, c)
	before, _ := b.ReplicaSet("g")

	// a dies; b and c walk it down the ladder, then b (smallest replica
	// endpoint) takes over.
	net.mu.Lock()
	net.down[a.Self()] = true
	net.mu.Unlock()
	tickAll(deadAfter+1, b, c)
	if len(rtb.promoted) != 1 || rtb.promoted[0] != "g/C/rb" || len(rtc.promoted) != 0 {
		t.Fatalf("promotions b=%v c=%v, want b=[g/C/rb]", rtb.promoted, rtc.promoted)
	}
	set, ok := b.ReplicaSet("g")
	if !ok || set.Primary != b.Self() || set.Version <= before.Version {
		t.Fatalf("promoted set = %+v (ok=%v)", set, ok)
	}
	if replicaMember(set, b.Self()) {
		t.Fatalf("new primary still lists itself as replica: %+v", set)
	}
	// c follows and regains a lease from the NEW primary's direct gossip.
	tickAll(2, b, c)
	cset, _ := c.ReplicaSet("g")
	if cset.Primary != b.Self() {
		t.Fatalf("c did not follow the new primary: %+v", cset)
	}
	if !c.LeaseValid("g") {
		t.Fatal("c has no lease from the new primary")
	}

	// a reconnects, learns the higher-Version set, and stands down.
	net.mu.Lock()
	net.down[a.Self()] = false
	net.mu.Unlock()
	tickAll(2, a, b, c)
	if len(rta.demoted) != 1 || rta.demoted[0] != "g" || len(rtb.demoted)+len(rtc.demoted) != 0 {
		t.Fatalf("demotions a=%v b=%v c=%v, want a=[g]", rta.demoted, rtb.demoted, rtc.demoted)
	}
	aset, _ := a.ReplicaSet("g")
	if aset.Primary != b.Self() {
		t.Fatalf("deposed primary kept its own set: %+v", aset)
	}
}

// TestEvictReplicaWaitsOutLease pins the write-path eviction contract:
// removing an unreachable replica bumps the set version, and the
// returned wait covers the evicted member's full lease window (plus a
// tick of phase skew) so it cannot serve a stale read after the write
// acks.
func TestEvictReplicaWaitsOutLease(t *testing.T) {
	net := newFakeNet()
	cfg := Config{Heartbeat: 10 * time.Millisecond}
	a, _ := net.addNode(t, "a", cfg)
	b, _ := net.addNode(t, "b", cfg)
	joinAll(t, a, b)
	a.RecordReplicaSet(replicaSet(a.Self()))
	before, _ := a.ReplicaSet("g")

	wait := a.EvictReplica("g", "rrp://b")
	if want := (leaseTicks + 1) * 10 * time.Millisecond; wait != want {
		t.Fatalf("lease wait = %v, want %v", wait, want)
	}
	set, _ := a.ReplicaSet("g")
	if replicaMember(set, "rrp://b") || set.Version != before.Version+1 {
		t.Fatalf("eviction did not bump membership/version: %+v", set)
	}
	// The evicted member learns it is out and stops self-routing.
	tickAll(2, a, b)
	if b.LeaseValid("g") {
		t.Fatal("evicted replica still holds a lease")
	}
	if rt, ok := b.ReadTarget("g"); ok && rt.Local {
		t.Fatalf("evicted replica still routes reads to itself: %+v", rt)
	}
	// Unknown sets cost no wait.
	if w := a.EvictReplica("nosuch", "rrp://b"); w != 0 {
		t.Fatalf("eviction of unknown set returned wait %v", w)
	}
}

// TestDropReplicaSetTombstones: dissolving a set gossips a tombstone
// that stops read routing everywhere.
func TestDropReplicaSetTombstones(t *testing.T) {
	net := newFakeNet()
	a, _ := net.addNode(t, "a", Config{})
	b, _ := net.addNode(t, "b", Config{})
	joinAll(t, a, b)
	a.RecordReplicaSet(replicaSet(a.Self()))
	tickAll(2, a, b)
	a.DropReplicaSet("g")
	tickAll(2, a, b)
	if _, ok := b.ReadTarget("g"); ok {
		t.Fatal("tombstoned set still routes reads")
	}
	if b.LeaseValid("g") {
		t.Fatal("tombstoned set left a live lease")
	}
}
