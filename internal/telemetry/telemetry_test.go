package telemetry

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/metrics"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// objVM is a VM over one class C_O_Local, whose instances the tests
// record calls on.
var objVM = func() *vm.VM {
	p := ir.NewProgram()
	p.MustAdd(&ir.Class{Name: "C_O_Local", Super: ir.ObjectClass})
	return vm.MustNew(p)
}()

func obj() *vm.Object {
	o, err := objVM.NewObject("C_O_Local")
	if err != nil {
		panic(err)
	}
	return o
}

// pinned returns an object kept alive until the test ends: the recorder
// holds objects weakly, and a collected one drops out of every window.
func pinned(t *testing.T) *vm.Object {
	o := obj()
	t.Cleanup(func() { runtime.KeepAlive(o) })
	return o
}

// objects and classes read r through a fresh cursor: the cumulative
// counts.
func objects(r *Recorder) []ObjSample {
	o, _ := r.NewWindow().Next()
	return o
}

func classes(r *Recorder) []ClassSample {
	_, c := r.NewWindow().Next()
	return c
}

// TestWindowsReadIndependentDeltas: two cursors read at different
// cadences, and neither steals the other's deltas.
func TestWindowsReadIndependentDeltas(t *testing.T) {
	r := NewRecorder(nil)
	s := r.ForObject(pinned(t), "g", "C")
	a, b := r.NewWindow(), r.NewWindow()
	calls := func(n int) {
		for i := 0; i < n; i++ {
			s.RecordInbound("rrp://a:1", 1, 2, time.Microsecond)
			r.RecordOutbound("C", "rrp://b:1", 4, time.Microsecond)
		}
	}
	read := func(w *Window) (uint64, uint64, uint64) {
		objs, cls := w.Next()
		if len(objs) != 1 || len(cls) != 1 {
			t.Fatalf("window: %d objects, %d classes", len(objs), len(cls))
		}
		return objs[0].Remote, objs[0].Callers["rrp://a:1"], cls[0].OutCalls["rrp://b:1"]
	}
	calls(10)
	if rem, ca, out := read(a); rem != 10 || ca != 10 || out != 10 {
		t.Fatalf("A's first window: remote %d caller %d out %d, want 10", rem, ca, out)
	}
	calls(15)
	if rem, ca, out := read(b); rem != 25 || ca != 25 || out != 25 {
		t.Fatalf("B's first window: remote %d caller %d out %d, want 25", rem, ca, out)
	}
	if rem, ca, out := read(a); rem != 15 || ca != 15 || out != 15 {
		t.Fatalf("A's second window: remote %d caller %d out %d, want 15", rem, ca, out)
	}
}

// TestFreshWindowIsCumulative: however far other cursors have advanced,
// a fresh cursor's first Next is the recorder's cumulative state.
func TestFreshWindowIsCumulative(t *testing.T) {
	r := NewRecorder(nil)
	o := obj()
	s := r.ForObject(o, "g", "C")
	old := r.NewWindow()
	for i := 0; i < 3; i++ {
		s.RecordInbound("rrp://a:1", 10, 20, time.Millisecond)
		s.RecordLocal()
		s.RecordEffect(i == 0)
		r.RecordCreateServed("C", "rrp://a:1")
		r.RecordOutbound("C", "rrp://b:1", 8, time.Millisecond)
		old.Next()
	}
	objs, cls := r.NewWindow().Next()
	want := ObjSample{GUID: "g", Class: "C", Obj: o, Local: 3, Remote: 3,
		Callers: map[string]uint64{"rrp://a:1": 3}, BytesIn: 30, BytesOut: 60,
		Reads: 2, Writes: 1, EWMALatencyNs: float64(time.Millisecond)}
	if len(objs) != 1 || !reflect.DeepEqual(objs[0], want) {
		t.Fatalf("fresh cursor objects = %+v, want %+v", objs, want)
	}
	wantC := ClassSample{Class: "C", ServedCreates: map[string]uint64{"rrp://a:1": 3},
		OutCalls: map[string]uint64{"rrp://b:1": 3}, OutBytes: 24, OutEWMANs: float64(time.Millisecond)}
	if len(cls) != 1 || !reflect.DeepEqual(cls[0], wantC) {
		t.Fatalf("fresh cursor classes = %+v, want %+v", cls, wantC)
	}
}

// TestIdleObjectAbsentFromNext: an object not called since the cursor's
// previous Next is absent; its class still reports, with zero deltas.
func TestIdleObjectAbsentFromNext(t *testing.T) {
	r := NewRecorder(nil)
	w := r.NewWindow()
	r.ForObject(pinned(t), "g", "C").RecordLocal()
	r.RecordCreateLocal("C")
	if objs, _ := w.Next(); len(objs) != 1 {
		t.Fatalf("first window objects = %+v", objs)
	}
	objs, cls := w.Next()
	if len(objs) != 0 {
		t.Fatalf("idle object reported: %+v", objs)
	}
	if len(cls) != 1 || cls[0].LocalCreates != 0 || cls[0].Class != "C" {
		t.Fatalf("idle class window = %+v", cls)
	}
}

// TestConcurrentNextPartitionsDeltas: readers sharing one cursor split
// its deltas between them — every call is reported exactly once.
func TestConcurrentNextPartitionsDeltas(t *testing.T) {
	r := NewRecorder(nil)
	s := r.ForObject(pinned(t), "g", "C")
	w := r.NewWindow()
	const calls = 2000
	var seen [3]uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range seen {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				objs, _ := w.Next()
				for _, o := range objs {
					seen[i] += o.Calls()
				}
			}
		}(i)
	}
	for i := 0; i < calls; i++ {
		s.RecordLocal()
	}
	close(stop)
	wg.Wait()
	objs, _ := w.Next()
	total := seen[0] + seen[1] + seen[2]
	for _, o := range objs {
		total += o.Calls()
	}
	if total != calls {
		t.Fatalf("cursor reported %d calls, want %d", total, calls)
	}
}

func TestForObjectInstallsOnce(t *testing.T) {
	r := NewRecorder(nil)
	o := obj()
	s1 := r.ForObject(o, "g1", "C")
	s2 := r.ForObject(o, "g1", "C")
	if s1 != s2 {
		t.Fatal("distinct stats records for one object")
	}
	s1.RecordInbound("rrp://a:1", 10, 20, time.Millisecond)
	s1.RecordLocal()
	samples := objects(r)
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
	r := NewRecorder(nil)
	s := r.ForObject(pinned(t), "g", "C")
	s.RecordInbound("", 1, 1, time.Microsecond)
	got := objects(r)[0]
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
	r := NewRecorder(nil)
	s := r.ForObject(pinned(t), "g", "C")
	for i := 0; i < callers; i++ {
		ep := fmt.Sprintf("rrp://10.0.%d.%d:1", i/256, i%256)
		s.RecordInbound(ep, 1, 1, time.Microsecond)
		r.RecordCreateServed("C", ep)
	}
	got := objects(r)[0]
	if len(got.Callers) > metrics.FamilyMax {
		t.Fatalf("%d callers itemised, cap %d", len(got.Callers), metrics.FamilyMax)
	}
	if got.Calls() != callers || got.Remote != uint64(len(got.Callers)) {
		t.Fatalf("totals: calls %d remote %d anon %d, %d itemised", got.Calls(), got.Remote, got.Anon, len(got.Callers))
	}
	cs := classes(r)[0]
	served := cs.ServedAnon
	for _, n := range cs.ServedCreates {
		served += n
	}
	if len(cs.ServedCreates) > metrics.FamilyMax || served != callers {
		t.Fatalf("served creates: %d itemised, %d total", len(cs.ServedCreates), served)
	}
}

func TestClassCounters(t *testing.T) {
	r := NewRecorder(nil)
	r.RecordCreateLocal("C")
	r.RecordCreateRemote("C", "rrp://b:1")
	r.RecordCreateServed("C", "rrp://a:1")
	r.RecordCreateServed("C", "")
	r.RecordOutbound("C", "rrp://b:1", 32, 2*time.Millisecond)
	r.RecordOutbound("C", "rrp://b:1", 32, 2*time.Millisecond)
	samples := classes(r)
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
	r := NewRecorder(nil)
	o := pinned(t)
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
	got := objects(r)[0]
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
	cs := classes(r)[0]
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
	r := NewRecorder(nil)
	keep := obj()
	r.ForObject(keep, "keep", "C").RecordLocal()
	func() {
		dead := obj()
		r.ForObject(dead, "dead", "C").RecordLocal()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		samples := objects(r)
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

// TestWindowDropsCollectedBaselines: a cursor's baseline for an object
// goes when the object is collected, so a long-lived reader's state is
// bounded by the live working set too.
func TestWindowDropsCollectedBaselines(t *testing.T) {
	r := NewRecorder(nil)
	w := r.NewWindow()
	keep := obj()
	r.ForObject(keep, "keep", "C").RecordLocal()
	func() {
		dead := obj()
		r.ForObject(dead, "dead", "C").RecordLocal()
	}()
	if objs, _ := w.Next(); len(objs) != 2 || len(w.objs) != 2 {
		t.Fatalf("first window: %d samples, %d baselines", len(objs), len(w.objs))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		w.Next()
		if len(w.objs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collected object's baseline never dropped: %d baselines", len(w.objs))
		}
	}
	for _, base := range w.objs {
		if base.GUID != "keep" {
			t.Fatalf("kept the wrong baseline: %+v", base)
		}
	}
	r.ForObject(keep, "keep", "C").RecordLocal()
	if objs, _ := w.Next(); len(objs) != 1 || objs[0].Local != 1 {
		t.Fatalf("live object's window after eviction: %+v", objs)
	}
	runtime.KeepAlive(keep)
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
		Redirect: &wire.RemoteRef{GUID: "g", Endpoint: "rrp://b:1", Target: "C"},
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

// peerRows indexes reg's peer.* rows as "name{key}".
func peerRows(reg *metrics.Registry) map[string]metrics.Row {
	out := map[string]metrics.Row{}
	for _, row := range reg.Snapshot() {
		out[row.Name+"{"+row.Key+"}"] = row
	}
	return out
}

func TestPeerRollups(t *testing.T) {
	reg := metrics.New()
	r := NewRecorder(reg)
	r.RecordOutbound("C", "rrp://b:1", 100, 2*time.Millisecond)
	r.RecordOutbound("D", "rrp://b:1", 50, 4*time.Millisecond)
	r.RecordPeerRTT("rrp://c:1", time.Millisecond)

	rows := peerRows(reg)
	if calls, bytes := rows["peer.calls{rrp://b:1}"], rows["peer.bytes{rrp://b:1}"]; calls.Value != 2 || bytes.Value != 150 {
		t.Fatalf("peer b rollup: calls %+v bytes %+v", calls, bytes)
	}
	rtt := rows["peer.rtt_ns{rrp://b:1}"]
	if rtt.Kind != "ewma" || rtt.Value < int64(time.Millisecond) || rtt.Value > int64(4*time.Millisecond) {
		t.Fatalf("peer b RTT EWMA out of range: %+v", rtt)
	}
	// A ping-only peer has an RTT but no invocation counts.
	if _, ok := rows["peer.calls{rrp://c:1}"]; ok || rows["peer.rtt_ns{rrp://c:1}"].Value != int64(time.Millisecond) {
		t.Fatalf("ping-only peer rollup: %+v", rows)
	}
}

func TestPeerRTTAggregatesAcrossPoolShards(t *testing.T) {
	// The transport pools several sockets per endpoint; observations
	// tagged with shard-qualified socket names (transport.Pool.ShardID,
	// "ep#N") must fold into ONE per-peer rollup — a per-socket split
	// would show an operator N thin EWMAs instead of one coherent peer
	// latency.
	if got := PeerKey("rrp://b:1#3"); got != "rrp://b:1" {
		t.Fatalf("PeerKey shard form: %q", got)
	}
	if got := PeerKey("rrp://b:1"); got != "rrp://b:1" {
		t.Fatalf("PeerKey canonical form: %q", got)
	}

	reg := metrics.New()
	r := NewRecorder(reg)
	r.RecordOutbound("C", "rrp://b:1#0", 100, 2*time.Millisecond)
	r.RecordOutbound("C", "rrp://b:1#1", 100, 2*time.Millisecond)
	r.RecordOutbound("C", "rrp://b:1", 100, 2*time.Millisecond)
	r.RecordPeerRTT("rrp://b:1#7", 2*time.Millisecond)

	rows := peerRows(reg)
	if len(rows) != 3 {
		t.Fatalf("shard-qualified endpoints fragmented the rollup: %+v", rows)
	}
	if calls, bytes := rows["peer.calls{rrp://b:1}"], rows["peer.bytes{rrp://b:1}"]; calls.Value != 3 || bytes.Value != 300 {
		t.Fatalf("aggregated peer rollup: calls %+v bytes %+v", calls, bytes)
	}
	if rtt := rows["peer.rtt_ns{rrp://b:1}"]; rtt.Value != int64(2*time.Millisecond) {
		t.Fatalf("aggregated RTT EWMA: %+v", rtt)
	}
}
