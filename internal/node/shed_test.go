package node

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/intercept"
	"rafda/internal/transport"
	"rafda/internal/wire"
)

// shedNode builds a node wired to an in-proc RRP server sharing the
// node's metrics registry, the same topology the facade assembles: the
// transport maintains the inflight gauge and slot-wait measurement the
// shedding interceptors key off.  Returns the node, a connected
// client, and the exported guids of two Cells — one for the flood to
// hold, one for the victim to probe.
func shedNode(t *testing.T, maxInflight int, shed intercept.ShedConfig) (*Node, transport.Client, string, string) {
	t.Helper()
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res, Shed: shed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	tr := transport.NewRRP(transport.Options{MaxInflight: maxInflight, Metrics: n.Metrics()})
	srv, err := tr.Listen("", n.dispatch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	guids := make([]string, 2)
	for i := range guids {
		ref, err := n.InvokeStatic("Mk", "make")
		if err != nil {
			t.Fatal(err)
		}
		guids[i] = n.exports.Ensure(ref.O)
	}
	return n, c, guids[0], guids[1]
}

// waitInflight polls the shared gauge until it reaches want.
func waitInflight(t *testing.T, n *Node, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for level(n, "overload.inflight") < want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %d, want %d", level(n, "overload.inflight"), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// shedCounts reads one shed family's rows as key -> count.
func shedCounts(n *Node, name string) map[string]int64 {
	out := map[string]int64{}
	for _, r := range n.Metrics().Snapshot() {
		if r.Name == name {
			out[r.Key] = r.Value
		}
	}
	return out
}

// TestFIFOUnfairnessPin pins the failure mode the shedding tier exists
// to fix: without it, dispatch-slot admission is pure FIFO and
// priority-blind.  A flood of class-0 calls holds every slot, and a
// class-1 victim with a live deadline expires in the admission queue —
// its priority bought it nothing.  If this test ever starts passing the
// victim through on a shed-free node, the admission path has grown an
// implicit policy and the interceptor ordering docs need revisiting.
func TestFIFOUnfairnessPin(t *testing.T) {
	n, c, flood, victim := shedNode(t, 2, intercept.ShedConfig{})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			resp, err := c.Call(&wire.Request{ID: id, Op: wire.OpInvoke, GUID: flood,
				Method: "slow", Args: []wire.Value{{Kind: wire.KInt, Int: 200_000}},
				Caller: "flood"})
			if err != nil || resp.Err != "" {
				t.Errorf("flood call: %+v %v", resp, err)
			}
		}(uint64(i + 1))
	}
	waitInflight(t, n, 2) // both slots held for ~200ms

	resp, err := c.Call(&wire.Request{ID: 10, Op: wire.OpInvoke, GUID: victim,
		Method: "peek", Priority: 1, Caller: "vip", DeadlineUs: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "deadline expired") {
		t.Fatalf("FIFO admission served the victim past full slots: %+v", resp)
	}
	if count(n, "overload.admission_rejects") == 0 {
		t.Fatal("victim expiry not counted as an admission reject")
	}
	wg.Wait()
}

// TestPriorityPreemptionAtSaturation is the counterpart pin: with
// strict-priority shedding on, the same saturation refuses class-0
// work at the door while a class-1 call sails through — the victim of
// the FIFO test is served, and the refusals are itemised per class.
func TestPriorityPreemptionAtSaturation(t *testing.T) {
	n, c, flood, victim := shedNode(t, 8, intercept.ShedConfig{PriorityAt: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			// Class-1 floods so they get in under the doubled threshold
			// and hold the gauge at 2 for the whole window.
			resp, err := c.Call(&wire.Request{ID: id, Op: wire.OpInvoke, GUID: flood,
				Method: "slow", Args: []wire.Value{{Kind: wire.KInt, Int: 300_000}},
				Priority: 1, Caller: "flood"})
			if err != nil || resp.Err != "" {
				t.Errorf("flood call: %+v %v", resp, err)
			}
		}(uint64(i + 1))
	}
	waitInflight(t, n, 2)

	// Class 0 at the threshold: refused immediately, no queueing.
	shed, err := c.Call(&wire.Request{ID: 10, Op: wire.OpInvoke, GUID: victim,
		Method: "peek", Caller: "bulk"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(shed.Err, "load-shed:") {
		t.Fatalf("class 0 not shed at saturation: %+v", shed)
	}
	// The transport gives the refused call's slot back after queueing its
	// response, so the gauge can still read 3 when the answer arrives.
	for level(n, "overload.inflight") > 2 {
		time.Sleep(time.Millisecond)
	}
	// Class 1 under its doubled threshold: served while the flood runs.
	served, err := c.Call(&wire.Request{ID: 11, Op: wire.OpInvoke, GUID: victim,
		Method: "peek", Priority: 1, Caller: "vip"})
	if err != nil {
		t.Fatal(err)
	}
	if served.Err != "" {
		t.Fatalf("class 1 refused below its threshold: %+v", served)
	}
	wg.Wait()

	if s := shedCounts(n, "shed.priority"); len(s) != 1 || s["0"] != 1 {
		t.Fatalf("per-class shed table = %v, want class 0 -> 1", s)
	}
}

// TestFairShareUnderFlooding pins the per-tenant policy end to end: a
// flooding tenant saturates the engaged threshold and its next call is
// refused by name, while a meek tenant arriving at the same instant is
// served within its share.
func TestFairShareUnderFlooding(t *testing.T) {
	n, c, flood, victim := shedNode(t, 8, intercept.ShedConfig{FairShareAt: 2})
	// The transport's inflight gauge counts a call once it holds a slot,
	// before the fair-share tier has counted it for its tenant, so the
	// gauge alone cannot say both floods are in the tenant's count.  A
	// user interceptor sits below the shedding tier: a flood that
	// reaches it has been counted and admitted.
	admitted := make(chan struct{}, 2)
	n.Use(func(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
		if cc.Req.Method == "slow" {
			admitted <- struct{}{}
		}
		return next(cc)
	})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			resp, err := c.Call(&wire.Request{ID: id, Op: wire.OpInvoke, GUID: flood,
				Method: "slow", Args: []wire.Value{{Kind: wire.KInt, Int: 300_000}},
				Caller: "flood"})
			if err != nil || resp.Err != "" {
				t.Errorf("flood call: %+v %v", resp, err)
			}
		}(uint64(i + 1))
	}
	for i := 0; i < 2; i++ {
		select {
		case <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 flood calls admitted after 5s", i)
		}
	}
	waitInflight(t, n, 2)

	shed, err := c.Call(&wire.Request{ID: 10, Op: wire.OpInvoke, GUID: victim,
		Method: "peek", Caller: "flood"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(shed.Err, "load-shed:") || !strings.Contains(shed.Err, `"flood"`) {
		t.Fatalf("flooding tenant's overshare call not refused by name: %+v", shed)
	}
	served, err := c.Call(&wire.Request{ID: 11, Op: wire.OpInvoke, GUID: victim,
		Method: "peek", Caller: "meek"})
	if err != nil {
		t.Fatal(err)
	}
	if served.Err != "" {
		t.Fatalf("meek tenant refused within share: %+v", served)
	}
	wg.Wait()

	if s := shedCounts(n, "shed.fairshare"); len(s) != 1 || s["flood"] != 1 {
		t.Fatalf("per-tenant shed table = %v, want flood -> 1", s)
	}
}

// TestCoDelRejectsSustainedQueueing drives sustained slot contention
// through the real transport clock: with one dispatch slot and a CoDel
// target far below the service time, waits stay above target and the
// controller must enter a drop cycle within the test window.  (The
// deterministic control-law shape is pinned with a fake clock in
// internal/intercept; this is the wiring test — transport-measured
// SlotWaitUs reaching the controller.)
func TestCoDelRejectsSustainedQueueing(t *testing.T) {
	n, c, flood, _ := shedNode(t, 1, intercept.ShedConfig{
		CoDelTarget: time.Millisecond, CoDelInterval: 5 * time.Millisecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var once sync.Once
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Call(&wire.Request{ID: uint64(g*10_000 + i + 1),
					Op: wire.OpInvoke, GUID: flood, Method: "slow",
					Args: []wire.Value{{Kind: wire.KInt, Int: 10_000}}, Caller: "flood"})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if strings.HasPrefix(resp.Err, "load-shed: queue delay") {
					once.Do(func() { close(stop) })
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no CoDel drop within 10s of sustained queueing")
	}
	select {
	case <-stop:
	default:
		t.Fatal("workers exited without observing a CoDel shed")
	}
	if count(n, "shed.codel") == 0 {
		t.Fatal("shed_codel counter never moved")
	}
}

// TestShedNeverCachedByDedup pins the load-bearing ordering contract:
// shedding runs before dedup Begin, so a tokened call refused under
// load retries cleanly once load drops — the shed response must never
// become the token's permanent replay answer.
func TestShedNeverCachedByDedup(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res, Shed: intercept.ShedConfig{PriorityAt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	g := n.exports.Ensure(ref.O)
	inflight := n.Metrics().Gauge("overload.inflight")

	// Saturated: the tokened first attempt is refused.
	inflight.Add(1)
	tok := dedupToken("c!1", 1)
	if resp := n.dispatch(bumpReq(1, g, "bump", tok)); !strings.HasPrefix(resp.Err, "load-shed:") {
		t.Fatalf("first attempt not shed: %+v", resp)
	}
	// Load drops: the retry of the same token must execute, not replay
	// the refusal.
	inflight.Add(-1)
	retry := n.dispatch(bumpReq(2, g, "bump", tok))
	if retry.Err != "" || retry.Result.Int != 1 {
		t.Fatalf("retry after shed did not execute: %+v", retry)
	}
	// And from here the normal exactly-once contract holds: a duplicate
	// of the executed retry replays without bumping again.
	dup := n.dispatch(bumpReq(3, g, "bump", tok))
	if dup.Err != "" || dup.Result.Int != 1 {
		t.Fatalf("duplicate after execution: %+v", dup)
	}
}

// TestUserInterceptorPlacement pins where Node.Use splices user tiers
// into the chain: below shedding (they see only admitted traffic),
// above dedup (their short-circuits are never recorded as replay
// answers), and below the plane (they never see ping/introspect).
func TestUserInterceptorPlacement(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res, Shed: intercept.ShedConfig{PriorityAt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	g := n.exports.Ensure(ref.O)
	inflight := n.Metrics().Gauge("overload.inflight")

	var seen []string
	n.Use(func(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
		seen = append(seen, cc.Req.Method)
		if cc.Req.Method == "forbidden" {
			return wire.Errorf(cc.Req, "policy: forbidden method"), nil
		}
		return next(cc)
	})

	// Plane op: answered above the user tier.
	if resp := n.dispatch(&wire.Request{ID: 1, Op: wire.OpPing}); resp.Err != "" {
		t.Fatalf("ping: %+v", resp)
	}
	// Shed call: refused above the user tier.
	inflight.Add(1)
	if resp := n.dispatch(&wire.Request{ID: 2, Op: wire.OpInvoke, GUID: g, Method: "peek"}); !strings.HasPrefix(resp.Err, "load-shed:") {
		t.Fatalf("expected shed: %+v", resp)
	}
	inflight.Add(-1)
	// Admitted call: the user tier sees it and may short-circuit.
	if resp := n.dispatch(&wire.Request{ID: 3, Op: wire.OpInvoke, GUID: g, Method: "forbidden"}); resp.Err != "policy: forbidden method" {
		t.Fatalf("user short-circuit: %+v", resp)
	}
	if resp := n.dispatch(&wire.Request{ID: 4, Op: wire.OpInvoke, GUID: g, Method: "peek"}); resp.Err != "" || resp.Result.Int != 0 {
		t.Fatalf("admitted call: %+v", resp)
	}
	if got := strings.Join(seen, ","); got != "forbidden,peek" {
		t.Fatalf("user tier saw %q, want only admitted traffic \"forbidden,peek\"", got)
	}

	// A user short-circuit of a *tokened* call: dedup sits below the
	// user tier, so the refusal is not recorded — a retry once the
	// policy allows it executes normally.
	n.Use(func(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
		return next(cc)
	}) // Use while serving: chain swap must not disturb built-in state
	if resp := n.dispatch(bumpReq(5, g, "forbidden", dedupToken("c!2", 1))); resp.Err != "policy: forbidden method" {
		t.Fatalf("tokened short-circuit: %+v", resp)
	}
	if resp := n.dispatch(bumpReq(6, g, "bump", dedupToken("c!2", 2))); resp.Err != "" || resp.Result.Int != 1 {
		t.Fatalf("tokened call after short-circuit: %+v", resp)
	}
}
