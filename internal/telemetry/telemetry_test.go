package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/metrics"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

func obj() *vm.Object {
	return vm.NewRawObject(&ir.Class{Name: "C_O_Local"}, map[string]vm.Value{})
}

func TestForObjectInstallsOnce(t *testing.T) {
	r := NewRecorder()
	o := obj()
	s1 := r.ForObject(o, "g1", "C")
	s2 := r.ForObject(o, "g1", "C")
	if s1 != s2 {
		t.Fatal("distinct stats records for one object")
	}
	s1.RecordInbound("rrp://a:1", 10, 20, time.Millisecond)
	s1.RecordLocal()
	samples := r.SnapshotObjects()
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	got := samples[0]
	if got.GUID != "g1" || got.Class != "C" || got.Obj != o {
		t.Fatalf("bad sample identity: %+v", got)
	}
	if got.Local != 1 || got.Remote != 1 || got.Callers["rrp://a:1"] != 1 {
		t.Fatalf("bad counters: %+v", got)
	}
	if got.BytesIn != 10 || got.BytesOut != 20 {
		t.Fatalf("bad bytes: %+v", got)
	}
	if got.EWMALatencyNs != float64(time.Millisecond.Nanoseconds()) {
		t.Fatalf("first observation must seed the EWMA, got %v", got.EWMALatencyNs)
	}
}

func TestAnonymousCallerCountsSeparately(t *testing.T) {
	r := NewRecorder()
	s := r.ForObject(obj(), "g", "C")
	s.RecordInbound("", 1, 1, time.Microsecond)
	got := r.SnapshotObjects()[0]
	if got.Anon != 1 || got.Remote != 0 || len(got.Callers) != 0 {
		t.Fatalf("anonymous caller misattributed: %+v", got)
	}
	if got.Calls() != 1 {
		t.Fatalf("Calls() = %d", got.Calls())
	}
}

// TestCallerItemisationCapped floods one object and one class with
// wire-supplied caller identities: at most metrics.FamilyMax are
// itemised, the rest count exactly as anonymous callers do, and the
// totals stay exact.
func TestCallerItemisationCapped(t *testing.T) {
	const callers = 10000
	r := NewRecorder()
	s := r.ForObject(obj(), "g", "C")
	for i := 0; i < callers; i++ {
		ep := fmt.Sprintf("rrp://10.0.%d.%d:1", i/256, i%256)
		s.RecordInbound(ep, 1, 1, time.Microsecond)
		r.RecordCreateServed("C", ep)
	}
	got := r.SnapshotObjects()[0]
	if len(got.Callers) > metrics.FamilyMax {
		t.Fatalf("%d callers itemised, cap %d", len(got.Callers), metrics.FamilyMax)
	}
	if got.Calls() != callers || got.Remote != uint64(len(got.Callers)) {
		t.Fatalf("totals: calls %d remote %d anon %d, %d itemised", got.Calls(), got.Remote, got.Anon, len(got.Callers))
	}
	cs := r.SnapshotClasses()[0]
	served := cs.ServedAnon
	for _, n := range cs.ServedCreates {
		served += n
	}
	if len(cs.ServedCreates) > metrics.FamilyMax || served != callers {
		t.Fatalf("served creates: %d itemised, %d total", len(cs.ServedCreates), served)
	}
}

func TestClassCounters(t *testing.T) {
	r := NewRecorder()
	r.RecordCreateLocal("C")
	r.RecordCreateRemote("C", "rrp://b:1")
	r.RecordCreateServed("C", "rrp://a:1")
	r.RecordCreateServed("C", "")
	r.RecordOutbound("C", "rrp://b:1", 32, 2*time.Millisecond)
	r.RecordOutbound("C", "rrp://b:1", 32, 2*time.Millisecond)
	samples := r.SnapshotClasses()
	if len(samples) != 1 {
		t.Fatalf("class samples = %d", len(samples))
	}
	cs := samples[0]
	if cs.LocalCreates != 1 || cs.RemoteCreates["rrp://b:1"] != 1 ||
		cs.ServedCreates["rrp://a:1"] != 1 || cs.ServedAnon != 1 {
		t.Fatalf("bad create counters: %+v", cs)
	}
	if cs.OutCalls["rrp://b:1"] != 2 || cs.OutBytes != 64 {
		t.Fatalf("bad out counters: %+v", cs)
	}
	if cs.OutEWMANs <= 0 {
		t.Fatal("EWMA not seeded")
	}
}

// TestConcurrentRecording drives every recording path from many
// goroutines; exact totals prove no update was lost (run under -race in
// CI).
func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	o := obj()
	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := fmt.Sprintf("rrp://peer%d:1", w%3)
			s := r.ForObject(o, "g", "C")
			for i := 0; i < each; i++ {
				s.RecordInbound(ep, 1, 1, time.Microsecond)
				s.RecordLocal()
				r.RecordOutbound("C", ep, 1, time.Microsecond)
				r.RecordCreateServed("C", ep)
			}
		}(w)
	}
	wg.Wait()
	got := r.SnapshotObjects()[0]
	if got.Remote != workers*each || got.Local != workers*each {
		t.Fatalf("lost object updates: %+v", got)
	}
	var sum uint64
	for _, n := range got.Callers {
		sum += n
	}
	if sum != workers*each {
		t.Fatalf("caller counters sum %d, want %d", sum, workers*each)
	}
	cs := r.SnapshotClasses()[0]
	var out uint64
	for _, n := range cs.OutCalls {
		out += n
	}
	if out != workers*each {
		t.Fatalf("out counters sum %d, want %d", out, workers*each)
	}
}

// TestSnapshotEvictsCollectedObjects pins the retention contract: the
// recorder references objects weakly, so once an observed object is
// garbage-collected its index entry disappears from the next snapshot
// — a long-running node's recorder tracks the live working set, not
// every object it ever served.
func TestSnapshotEvictsCollectedObjects(t *testing.T) {
	r := NewRecorder()
	keep := obj()
	r.ForObject(keep, "keep", "C").RecordLocal()
	func() {
		dead := obj()
		r.ForObject(dead, "dead", "C").RecordLocal()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		samples := r.SnapshotObjects()
		if len(samples) == 1 && samples[0].GUID == "keep" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collected object never evicted; snapshot: %+v", samples)
		}
	}
	if r.ForObject(keep, "keep", "C") == nil {
		t.Fatal("live object lost its stats")
	}
}

func TestSizeEstimates(t *testing.T) {
	req := &wire.Request{
		Op: wire.OpInvoke, GUID: "guid", Method: "m",
		Args:   []wire.Value{{Kind: wire.KString, Str: "hello"}, {Kind: wire.KInt, Int: 7}},
		Caller: "rrp://a:1",
	}
	small := RequestSize(&wire.Request{Op: wire.OpPing})
	if RequestSize(req) <= small {
		t.Fatal("payload must grow the estimate")
	}
	resp := &wire.Response{Result: wire.Value{Kind: wire.KString, Str: "hello"}}
	withRedirect := &wire.Response{
		Result:   wire.Value{Kind: wire.KString, Str: "hello"},
		Redirect: &wire.RemoteRef{GUID: "g", Endpoint: "rrp://b:1", Proto: "rrp", Target: "C"},
	}
	if ResponseSize(withRedirect) <= ResponseSize(resp) {
		t.Fatal("redirect must grow the estimate")
	}
	arr := wire.Value{Kind: wire.KArray, Elem: "I",
		Arr: []wire.Value{{Kind: wire.KInt}, {Kind: wire.KInt}}}
	if valueSize(&arr) <= 1 {
		t.Fatal("array elements must be counted")
	}
}

func TestPeerRollups(t *testing.T) {
	r := NewRecorder()
	r.RecordOutbound("C", "rrp://b:1", 100, 2*time.Millisecond)
	r.RecordOutbound("D", "rrp://b:1", 50, 4*time.Millisecond)
	r.RecordPeerRTT("rrp://c:1", time.Millisecond)

	byEp := map[string]PeerSample{}
	for _, s := range r.SnapshotPeers() {
		byEp[s.Endpoint] = s
	}
	b := byEp["rrp://b:1"]
	if b.Calls != 2 || b.Bytes != 150 {
		t.Fatalf("peer b rollup: %+v", b)
	}
	if b.RTTEWMANs < float64(time.Millisecond) || b.RTTEWMANs > float64(4*time.Millisecond) {
		t.Fatalf("peer b RTT EWMA out of range: %v", b.RTTEWMANs)
	}
	// A ping-only peer has an RTT but no invocation counts.
	c := byEp["rrp://c:1"]
	if c.Calls != 0 || c.RTTEWMANs != float64(time.Millisecond) {
		t.Fatalf("ping-only peer rollup: %+v", c)
	}
	rtts := r.PeerRTTs()
	if len(rtts) != 2 || rtts["rrp://c:1"] != float64(time.Millisecond) {
		t.Fatalf("PeerRTTs: %+v", rtts)
	}
}

func TestPeerRTTAggregatesAcrossPoolShards(t *testing.T) {
	// The transport pools several sockets per endpoint; observations
	// tagged with shard-qualified socket names (transport.Pool.ShardID,
	// "ep#N") must fold into ONE per-peer rollup — a per-socket split
	// would hand CostAffinityRule and gossip suspicion timing N thin
	// EWMAs instead of one coherent peer latency.
	if got := PeerKey("rrp://b:1#3"); got != "rrp://b:1" {
		t.Fatalf("PeerKey shard form: %q", got)
	}
	if got := PeerKey("rrp://b:1"); got != "rrp://b:1" {
		t.Fatalf("PeerKey canonical form: %q", got)
	}

	r := NewRecorder()
	r.RecordOutbound("C", "rrp://b:1#0", 100, 2*time.Millisecond)
	r.RecordOutbound("C", "rrp://b:1#1", 100, 2*time.Millisecond)
	r.RecordOutbound("C", "rrp://b:1", 100, 2*time.Millisecond)
	r.RecordPeerRTT("rrp://b:1#7", 2*time.Millisecond)

	peers := r.SnapshotPeers()
	if len(peers) != 1 {
		t.Fatalf("shard-qualified endpoints fragmented the rollup: %+v", peers)
	}
	p := peers[0]
	if p.Endpoint != "rrp://b:1" || p.Calls != 3 || p.Bytes != 300 {
		t.Fatalf("aggregated peer rollup: %+v", p)
	}
	if p.RTTEWMANs != float64(2*time.Millisecond) {
		t.Fatalf("aggregated RTT EWMA: %v", p.RTTEWMANs)
	}
	rtts := r.PeerRTTs()
	if len(rtts) != 1 || rtts["rrp://b:1"] == 0 {
		t.Fatalf("PeerRTTs keyed per socket: %+v", rtts)
	}
}
