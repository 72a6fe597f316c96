package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rafda/internal/cluster"
	"rafda/internal/ir"
	"rafda/internal/policy"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// replSource is the shared program for the replication tests: a
// read-hot Item reachable from every node through Mk's static field,
// with a classified-read get and classified-write set/bump.
const replSource = `
class Item {
    int v;
    Item(int v) { this.v = v; }
    int get() { return v; }
    int set(int x) { this.v = x; return x; }
    int bump() { v = v + 1; return v; }
}
class Mk {
    static Item obj = new Item(41);
    static Item get() { return obj; }
}
class Main { static void main() {} }`

// replCluster builds the canonical three-node replication deployment:
// the object lives at home, readerA and readerB hold proxies to it, and
// all three are cluster members driven by deterministic Ticks.
func replCluster(t *testing.T) (home, readerA, readerB *Node, coords []*cluster.Coordinator, eps [3]string, obj *vm.Object, refA, refB vm.Value) {
	t.Helper()
	res := transformSource(t, replSource)
	mk := func(name, seed string) (*Node, *cluster.Coordinator, string) {
		n, err := New(Config{Name: name, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		ep, err := n.Serve("inproc", "")
		if err != nil {
			t.Fatal(err)
		}
		var seeds []string
		if seed != "" {
			seeds = []string{seed}
		}
		co, err := n.StartCluster(cluster.Config{Fanout: 8}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return n, co, ep
	}
	home, co1, ep1 := mk("home", "")
	readerA, co2, ep2 := mk("readerA", co1.Self())
	readerB, co3, ep3 := mk("readerB", co1.Self())
	coords = []*cluster.Coordinator{co1, co2, co3}
	eps = [3]string{ep1, ep2, ep3}

	ref, err := home.InvokeStatic("Mk", "get")
	if err != nil {
		t.Fatal(err)
	}
	obj = ref.O
	for _, r := range []*Node{readerA, readerB} {
		pl, err := policy.RemoteAt(ep1)
		if err != nil {
			t.Fatal(err)
		}
		r.Policy().SetClass("Mk", pl)
	}
	ra, err := readerA.InvokeStatic("Mk", "get")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readerB.InvokeStatic("Mk", "get")
	if err != nil {
		t.Fatal(err)
	}
	return home, readerA, readerB, coords, eps, obj, ra, rb
}

func tickAll(coords []*cluster.Coordinator, rounds int) {
	for i := 0; i < rounds; i++ {
		for _, co := range coords {
			co.Tick()
		}
	}
}

// TestReplicatedReadsServeLocally: after Replicate and a few gossip
// rounds, both readers' classified reads route to their local copies —
// zero traffic at the primary — and still observe the object's state.
func TestReplicatedReadsServeLocally(t *testing.T) {
	home, readerA, readerB, coords, eps, obj, refA, refB := replCluster(t)

	if home.IsReplicated(obj) {
		t.Fatal("not yet replicated")
	}
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	if !home.IsReplicated(obj) {
		t.Fatal("primary should report replication")
	}
	tickAll(coords, 4)

	guid, _ := home.exports.GUIDOf(obj)
	for i, co := range coords[1:] {
		route, ok := co.ReadTarget(guid)
		if !ok || !route.Local {
			t.Fatalf("reader %d: read route %+v ok=%v, want local replica", i, route, ok)
		}
	}

	// No ticks from here: the primary's inbound counter isolates the
	// reads themselves.
	before := count(home, "node.calls_in")
	for i, rd := range []struct {
		n   *Node
		ref vm.Value
	}{{readerA, refA}, {readerB, refB}} {
		got, err := rd.n.CallOn(rd.ref, "get")
		if err != nil || got.I != 41 {
			t.Fatalf("reader %d local read: %v %v", i, got, err)
		}
	}
	if after := count(home, "node.calls_in"); after != before {
		t.Fatalf("replicated reads still reached the primary: %d -> %d", before, after)
	}
}

// TestWriteInvalidatesReplicasBeforeAck is the tentpole's core
// guarantee, deterministically: a write through a reader's proxy
// serialises at the primary and updates/invalidates every copy before
// it acknowledges, so the very next read at EVERY replica — with no
// gossip ticks in between — observes the written value.  No replica
// serves a read older than the last acknowledged write.
func TestWriteInvalidatesReplicasBeforeAck(t *testing.T) {
	home, readerA, readerB, coords, eps, obj, refA, refB := replCluster(t)
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	tickAll(coords, 4)
	guid, _ := home.exports.GUIDOf(obj)

	// The write goes through readerA's proxy (which still names the
	// primary); the ack races nothing — by the time CallOn returns,
	// both copies must already carry the new value and epoch.
	if got, err := readerA.CallOn(refA, "set", vm.IntV(7)); err != nil || got.I != 7 {
		t.Fatalf("write through proxy: %v %v", got, err)
	}
	for i, rd := range []struct {
		n   *Node
		ref vm.Value
	}{{readerA, refA}, {readerB, refB}} {
		got, err := rd.n.CallOn(rd.ref, "get")
		if err != nil || got.I != 7 {
			t.Fatalf("reader %d read %v %v immediately after acked write, want 7 (stale replica)", i, got, err)
		}
	}
	// The epoch advanced past the install epoch and the directory knows.
	if set, ok := coords[0].ReplicaSet(guid); !ok || set.Epoch < 2 {
		t.Fatalf("primary epoch after write: %+v ok=%v, want epoch >= 2", set, ok)
	}

	// Monotonicity under concurrency (-race exercises the barrier/read
	// interleavings): one writer streams increasing values through the
	// primary while both readers spin on their local copies; no reader
	// may ever observe a value going backwards, and once the last write
	// acks, every replica reads it.
	const writes = 40
	done := make(chan error, 2)
	stop := make(chan struct{})
	reader := func(n *Node, ref vm.Value) {
		last := int64(0)
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			got, err := n.CallOn(ref, "get")
			if err != nil {
				done <- err
				return
			}
			if got.I < last {
				done <- fmt.Errorf("read regressed: %d after %d", got.I, last)
				return
			}
			last = got.I
		}
	}
	go reader(readerA, refA)
	go reader(readerB, refB)
	for i := 1; i <= writes; i++ {
		if _, err := home.CallOn(vm.RefV(obj), "set", vm.IntV(int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("reader observed regression or error: %v", err)
		}
	}
	for i, rd := range []struct {
		n   *Node
		ref vm.Value
	}{{readerA, refA}, {readerB, refB}} {
		got, err := rd.n.CallOn(rd.ref, "get")
		if err != nil || got.I != 100+writes {
			t.Fatalf("reader %d final read %v %v, want %d", i, got, err, 100+writes)
		}
	}
}

// TestWriteRetryThroughReplicaIsExactlyOnce: a tokened write landing at
// a replica forwards to the primary under the caller's own token
// (attempt bumped), so a duplicate delivery of the same logical write —
// whether it re-arrives at the replica or goes straight to the primary
// as a post-redirect retry — replays instead of re-executing.  The PR6
// dedup plane and the replication plane compose.
func TestWriteRetryThroughReplicaIsExactlyOnce(t *testing.T) {
	home, readerA, _, coords, eps, obj, _, _ := replCluster(t)
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	tickAll(coords, 4)
	guid, _ := home.exports.GUIDOf(obj)

	// The replica's local GUID for its copy (what a read-routed caller
	// would hold).
	set, ok := coords[0].ReplicaSet(guid)
	if !ok {
		t.Fatal("no replica set at primary")
	}
	var replicaGUID string
	for _, r := range set.Replicas {
		if r.Endpoint == eps[1] {
			replicaGUID = r.GUID
		}
	}
	if replicaGUID == "" {
		t.Fatalf("readerA not in replica set %+v", set)
	}

	tok := &wire.CallToken{Caller: "ext!1", Seq: 1}
	req := func(id uint64) *wire.Request {
		c := *tok
		return &wire.Request{ID: id, Op: wire.OpInvoke, GUID: replicaGUID, Method: "bump", Token: &c}
	}
	first := readerA.dispatch(req(1))
	if first.Err != "" || first.Result.Int != 42 {
		t.Fatalf("write via replica: %+v", first)
	}
	// Duplicate delivery at the replica: replayed from its window.
	dup := readerA.dispatch(req(2))
	if dup.Err != "" || dup.Result.Int != 42 {
		t.Fatalf("duplicate at replica re-executed: %+v", dup)
	}
	// Post-redirect retry straight at the primary, same token with the
	// attempt the forward used: the primary's window recognises it.
	retry := &wire.Request{ID: 3, Op: wire.OpInvoke, GUID: guid, Method: "bump",
		Token: &wire.CallToken{Caller: "ext!1", Seq: 1, Attempt: 1}}
	if resp := home.dispatch(retry); resp.Err != "" || resp.Result.Int != 42 {
		t.Fatalf("post-redirect retry at primary re-executed: %+v", resp)
	}
	if got, err := home.CallOn(vm.RefV(obj), "get"); err != nil || got.I != 42 {
		t.Fatalf("counter after retries: %v %v, want one bump to 42", got, err)
	}
}

// TestPrimaryFailoverPromotesReplica: when the primary dies, the
// smallest live replica endpoint promotes itself (serving the object
// under its cluster-wide identity), the other replica re-leases from
// the new primary, and no read anywhere observes state older than the
// last write the dead primary acknowledged.
func TestPrimaryFailoverPromotesReplica(t *testing.T) {
	home, readerA, readerB, coords, eps, obj, refA, refB := replCluster(t)
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	tickAll(coords, 4)
	guid, _ := home.exports.GUIDOf(obj)

	// Last acknowledged write before the failure.
	if _, err := home.CallOn(vm.RefV(obj), "set", vm.IntV(7)); err != nil {
		t.Fatal(err)
	}

	// The primary dies.  Surviving members keep ticking until the
	// suspicion ladder declares it dead and one of them promotes.
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := coords[1:]
	winner, loser := readerA, readerB
	winnerEp := eps[1]
	if eps[2] < eps[1] {
		winner, loser = readerB, readerA
		winnerEp = eps[2]
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tickAll(survivors, 1)
		if set, ok := winner.Cluster().ReplicaSet(guid); ok && set.Primary == winnerEp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("promotion never happened")
		}
	}
	// The winner serves the object under its cluster-wide identity.
	po, ok := winner.exports.Get(guid)
	if !ok {
		t.Fatalf("promoted node does not export %s", guid)
	}
	if got, err := winner.CallOn(vm.RefV(po), "get"); err != nil || got.I != 7 {
		t.Fatalf("promoted read: %v %v, want the last acked write 7", got, err)
	}
	// A few more rounds: the loser learns the new primary (directory
	// move + lease renewal) and reads resume — still the acked value.
	tickAll(survivors, 4)
	loserRef, winnerRef := refB, refA
	if loser == readerA {
		loserRef, winnerRef = refA, refB
	}
	if got, err := loser.CallOn(loserRef, "get"); err != nil || got.I != 7 {
		t.Fatalf("surviving replica read after failover: %v %v, want 7", got, err)
	}
	// Writes work again through the new primary, and replicas follow.
	if got, err := loser.CallOn(loserRef, "set", vm.IntV(9)); err != nil || got.I != 9 {
		t.Fatalf("write after failover: %v %v", got, err)
	}
	if got, err := winner.CallOn(winnerRef, "get"); err != nil || got.I != 9 {
		t.Fatalf("read at new primary after failover write: %v %v, want 9", got, err)
	}
	if got, err := loser.CallOn(loserRef, "get"); err != nil || got.I != 9 {
		t.Fatalf("read at surviving replica after failover write: %v %v, want 9", got, err)
	}
}

// TestMigrationDissolvesReplication: a replicated primary that migrates
// drops its replica set first (tombstone + copy drops), so the moved
// object is single-homed at its new node and replica copies do not
// linger serving stale state.
func TestMigrationDissolvesReplication(t *testing.T) {
	home, readerA, _, coords, eps, obj, refA, _ := replCluster(t)
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	tickAll(coords, 4)
	guid, _ := home.exports.GUIDOf(obj)

	if err := home.Migrate(vm.RefV(obj), eps[2]); err != nil {
		t.Fatal(err)
	}
	if home.IsReplicated(obj) {
		t.Fatal("replication should dissolve on migration")
	}
	if _, ok := coords[0].ReadTarget(guid); ok {
		t.Fatal("read route survived the migration tombstone")
	}
	// readerA's next write lands at the new single home (directory or
	// redirect chain) and reads observe it without any replica plane.
	if got, err := readerA.CallOn(refA, "set", vm.IntV(5)); err != nil || got.I != 5 {
		t.Fatalf("write after dissolution: %v %v", got, err)
	}
	if got, err := readerA.CallOn(refA, "get"); err != nil || got.I != 5 {
		t.Fatalf("read after dissolution: %v %v", got, err)
	}
}

// TestFailoverEpochJumpNoStaleReadAtDivergedReplica pins the promotion
// epoch jump: the dead primary can have died inside ONE unacked fan-out,
// so a surviving replica may already hold epoch E while the promoted
// node and the set record E-1.  Promotion must seed the write epoch
// strictly above E — otherwise the new primary's first acknowledged
// write commits at E, the diverged replica equal-epoch-acks it WITHOUT
// applying, and then serves the dead primary's state to reads after the
// write was acknowledged, breaking the stale-read invariant across
// failover.
func TestFailoverEpochJumpNoStaleReadAtDivergedReplica(t *testing.T) {
	home, readerA, readerB, coords, eps, obj, refA, refB := replCluster(t)
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	tickAll(coords, 4)
	guid, _ := home.exports.GUIDOf(obj)

	// Last acknowledged write before the crash.
	if _, err := home.CallOn(vm.RefV(obj), "set", vm.IntV(7)); err != nil {
		t.Fatal(err)
	}
	set, ok := coords[0].ReplicaSet(guid)
	if !ok {
		t.Fatal("no replica set at primary")
	}

	// The election winner is the smallest live endpoint; the OTHER
	// survivor is the one we diverge.
	winner, loser := readerA, readerB
	winnerEp, loserEp := eps[1], eps[2]
	winnerRef, loserRef := refA, refB
	if eps[2] < eps[1] {
		winner, loser = readerB, readerA
		winnerEp, loserEp = eps[2], eps[1]
		winnerRef, loserRef = refB, refA
	}
	_ = winnerRef
	var loserGUID string
	for _, r := range set.Replicas {
		if r.Endpoint == loserEp {
			loserGUID = r.GUID
		}
	}
	if loserGUID == "" {
		t.Fatalf("loser not in replica set %+v", set)
	}

	// The dead primary's unacked in-flight fan-out: one epoch past the
	// last acknowledged one, applied at the loser only, never acked.
	div := loser.dispatch(&wire.Request{
		ID: 99, Op: wire.OpReplicaUpdate, GUID: loserGUID, Epoch: set.Epoch + 1,
		Fields: []wire.NamedValue{{Name: "v", Value: wire.Value{Kind: wire.KInt, Int: 777}}},
	})
	if div.Err != "" || div.Epoch != set.Epoch+1 {
		t.Fatalf("diverging update: %+v", div)
	}

	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := coords[1:]
	deadline := time.Now().Add(5 * time.Second)
	for {
		tickAll(survivors, 1)
		if s, ok := winner.Cluster().ReplicaSet(guid); ok && s.Primary == winnerEp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("promotion never happened")
		}
	}
	tickAll(survivors, 4)

	// First acknowledged write through the new primary.  It must commit
	// at an epoch strictly above the dead primary's in-flight one so the
	// diverged loser APPLIES it; the barrier's ack then really covers
	// the loser's state.
	if got, err := loser.CallOn(loserRef, "set", vm.IntV(9)); err != nil || got.I != 9 {
		t.Fatalf("write after failover: %v %v", got, err)
	}
	if got, err := loser.CallOn(loserRef, "get"); err != nil || got.I != 9 {
		t.Fatalf("diverged replica read after acked write: %v %v, want 9 (served the dead primary's unacked state)", got, err)
	}
}

// TestReplicaReadQueuedPastLeaseExpiryForwards pins the gate-time lease
// re-check: a read that passes the pre-gate lease check and then waits
// on the copy's invocation gate until after the lease lapses must NOT
// execute against the (possibly stale) local copy — by then the
// primary's eviction wait may have elapsed and a newer write been
// acknowledged.  It forwards to the primary instead, surfacing the
// primary's unavailability rather than stale state.
func TestReplicaReadQueuedPastLeaseExpiryForwards(t *testing.T) {
	home, readerA, _, coords, eps, obj, _, _ := replCluster(t)
	if err := home.Replicate(vm.RefV(obj), eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	tickAll(coords, 4)
	guid, _ := home.exports.GUIDOf(obj)
	set, ok := coords[0].ReplicaSet(guid)
	if !ok {
		t.Fatal("no replica set at primary")
	}
	var repGUID string
	for _, r := range set.Replicas {
		if r.Endpoint == eps[1] {
			repGUID = r.GUID
		}
	}
	if repGUID == "" {
		t.Fatalf("readerA not in replica set %+v", set)
	}
	rep, ok := readerA.exports.Get(repGUID)
	if !ok {
		t.Fatal("replica has no exported copy")
	}

	// Hold the copy's invocation gate while a read queues behind it.
	hold := make(chan struct{})
	held := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(hold)
		}
	}
	defer release()
	go readerA.machine.ExecOn(rep, func(env *vm.Env) {
		close(held)
		<-hold
	})
	<-held
	respCh := make(chan *wire.Response, 1)
	go func() {
		respCh <- readerA.dispatch(&wire.Request{ID: 7, Op: wire.OpInvoke, GUID: repGUID, Method: "get"})
	}()
	// Let the read pass the pre-gate lease check and park on the gate,
	// then lapse the lease: the primary goes silent and the replica's
	// own ticks carry its clock past the lease deadline (5 ticks) but
	// short of declaring the primary dead (15), so failover does not
	// fire mid-test.
	time.Sleep(50 * time.Millisecond)
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		coords[1].Tick()
	}
	if readerA.Cluster().LeaseValid(guid) {
		t.Fatal("lease still valid after silent ticks; test set-up broken")
	}
	release()
	resp := <-respCh
	if resp.Redirect == nil {
		t.Fatalf("queued read served from the local copy after lease expiry: %+v, want a forward to the primary", resp)
	}
}

// TestDropReplicationReleasesMu: dissolving a replica set sends its drop
// requests with primaryReplica.mu released (CONCURRENCY.md §13: mu is
// never held across the network), so a write barrier waiting on mu
// under the object's gate does not stall the object for the sends.
func TestDropReplicationReleasesMu(t *testing.T) {
	n, err := New(Config{Name: "primary", Result: transformSource(t, replSource)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	entered, release := make(chan struct{}), make(chan struct{})
	member, err := transport.NewInproc().Listen("", func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpReplicaDrop {
			close(entered)
			<-release
		}
		return &wire.Response{}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { member.Close() })
	pr := &primaryReplica{guid: "home#1", class: "Item",
		members: []wire.ReplicaInfo{{Endpoint: member.Endpoint(), GUID: "replica#1"}}}
	n.replPrim.Store(pr.guid, pr)
	n.replPrim.Store("alias#1", pr)
	done := make(chan struct{})
	go func() {
		n.dropReplication(pr.guid)
		close(done)
	}()
	<-entered
	locked := pr.mu.TryLock()
	if locked {
		pr.mu.Unlock()
	}
	close(release)
	<-done
	if !locked {
		t.Fatal("primaryReplica.mu held while the drop request was in flight")
	}
	if !pr.dropped || pr.members != nil {
		t.Fatalf("set not retired: dropped=%v members=%v", pr.dropped, pr.members)
	}
	n.replPrim.Range(func(k, _ any) bool {
		t.Errorf("replPrim still holds %v", k)
		return true
	})
}

// TestConcurrentFirstVerdicts: two nodes share one Result whose effect
// verdicts nothing has asked for yet.  Many goroutines then make their
// first verdict-deciding calls at once: host calls on the primary and
// routed reads through the reader's proxy.  Every verdict either node
// then reports equals the one a separate Result gives serially, and the
// routed reads stay at the reader's replica.
func TestConcurrentFirstVerdicts(t *testing.T) {
	serial := transformSource(t, replSource)
	res := transformSource(t, replSource)
	// Nothing below queries a verdict until the goroutines start: no
	// coordinator or telemetry is on while the reader fetches its
	// proxy, and replication itself classifies no call.
	mk := func(name string) (*Node, string) {
		n, err := New(Config{Name: name, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		ep, err := n.Serve("inproc", "")
		if err != nil {
			t.Fatal(err)
		}
		return n, ep
	}
	home, epHome := mk("home")
	reader, epReader := mk("reader")
	ref, err := home.InvokeStatic("Mk", "get")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := policy.RemoteAt(epHome)
	if err != nil {
		t.Fatal(err)
	}
	reader.Policy().SetClass("Mk", pl)
	proxy, err := reader.InvokeStatic("Mk", "get")
	if err != nil {
		t.Fatal(err)
	}
	coHome, err := home.StartCluster(cluster.Config{Fanout: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coReader, err := reader.StartCluster(cluster.Config{Fanout: 8}, []string{coHome.Self()})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Replicate(ref, epReader); err != nil {
		t.Fatal(err)
	}
	tickAll([]*cluster.Coordinator{coHome, coReader}, 4)

	type query struct {
		class, method string
		nargs         int
		writer        bool // the serial verdict
	}
	var queries []query
	for _, class := range []string{transform.OLocal("Item"), transform.OProxy("Item", "inproc")} {
		for _, m := range []struct {
			name  string
			nargs int
		}{{"get", 0}, {"set", 1}, {"bump", 0}} {
			writer := !serial.ReadOnly(class, ir.MethodKey(m.name, m.nargs))
			queries = append(queries, query{class, m.name, m.nargs, writer})
		}
	}
	before := count(home, "node.calls_in")
	const workers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		n, recv := home, ref
		if i%2 == 1 {
			n, recv = reader, proxy
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got, err := n.CallOn(recv, "get"); err != nil || got.I != 41 {
				t.Errorf("%s: get = %v, %v", n.Name(), got, err)
			}
			for _, q := range queries {
				if got := n.isWriter(q.class, q.method, q.nargs); got != q.writer {
					t.Errorf("%s: isWriter(%s.%s/%d) = %v, want %v", n.Name(), q.class, q.method, q.nargs, got, q.writer)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if after := count(home, "node.calls_in"); after != before {
		t.Errorf("routed reads reached the primary: calls_in %d -> %d", before, after)
	}
}

// TestDeclaredProxyLookalikeIsWriter: a declared class named like a
// generated proxy is not one, so its native method keeps the blanket
// writer verdict instead of borrowing a local twin's.
func TestDeclaredProxyLookalikeIsWriter(t *testing.T) {
	n, err := New(Config{Name: "solo", Result: transformSource(t, `
class A { int n; int get() { return n; } }
class A_O_Proxy_zz { native int get(); }
class Main { static void main() { } }`)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if !n.isWriter("A_O_Proxy_zz", "get", 0) {
		t.Error("native A_O_Proxy_zz.get/0 classified read-only")
	}
}
