package intercept

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafda/internal/metrics"
	"rafda/internal/wire"
)

func okRoot(result string) Handler {
	return func(cc *CallCtx) (*wire.Response, error) {
		return &wire.Response{ID: cc.Req.ID, Result: wire.Value{Kind: wire.KString, Str: result}}, nil
	}
}

// TestChainOrdering pins the composition order: New(root, a, b, c) runs
// a around b around c around root, so the before-hooks fire outermost
// first and the after-hooks innermost first.
func TestChainOrdering(t *testing.T) {
	var log []string
	mark := func(name string) Interceptor {
		return func(cc *CallCtx, next Handler) (*wire.Response, error) {
			log = append(log, name+">")
			resp, err := next(cc)
			log = append(log, "<"+name)
			return resp, err
		}
	}
	ch := New(func(cc *CallCtx) (*wire.Response, error) {
		log = append(log, "root")
		return okRoot("ok")(cc)
	}, mark("a"), mark("b"), mark("c"))
	resp := ch.Dispatch(&wire.Request{ID: 7})
	if resp.Err != "" || resp.Result.Str != "ok" {
		t.Fatalf("unexpected response: %+v", resp)
	}
	want := "a>,b>,c>,root,<c,<b,<a"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestChainShortCircuit pins that an interceptor returning without
// calling next stops the chain: inner tiers and the root never run.
func TestChainShortCircuit(t *testing.T) {
	innerRan := false
	ch := New(
		func(cc *CallCtx) (*wire.Response, error) {
			innerRan = true
			return okRoot("ok")(cc)
		},
		func(cc *CallCtx, next Handler) (*wire.Response, error) {
			return wire.Errorf(cc.Req, "refused"), nil
		},
		func(cc *CallCtx, next Handler) (*wire.Response, error) {
			innerRan = true
			return next(cc)
		},
	)
	resp := ch.Dispatch(&wire.Request{ID: 1})
	if resp.Err != "refused" {
		t.Fatalf("Err = %q, want refused", resp.Err)
	}
	if innerRan {
		t.Fatal("short-circuit leaked into inner tiers")
	}
}

// TestChainErrorRendered pins Dispatch's error contract: an error
// escaping the chain (and the nil-response/nil-error violation) comes
// back as an error response, never a nil frame.
func TestChainErrorRendered(t *testing.T) {
	ch := New(func(cc *CallCtx) (*wire.Response, error) {
		return nil, errors.New("boom")
	})
	if resp := ch.Dispatch(&wire.Request{ID: 2}); resp == nil || resp.Err != "boom" {
		t.Fatalf("error not rendered: %+v", resp)
	}
	ch = New(func(cc *CallCtx) (*wire.Response, error) { return nil, nil })
	if resp := ch.Dispatch(&wire.Request{ID: 3}); resp == nil || resp.Err == "" {
		t.Fatalf("nil/nil contract violation not rendered: %+v", resp)
	}
}

// TestChainContextReset pins that the pooled CallCtx is recycled clean:
// scratch one interceptor writes must not leak into the next dispatch.
func TestChainContextReset(t *testing.T) {
	ch := New(okRoot("ok"), func(cc *CallCtx, next Handler) (*wire.Response, error) {
		if cc.Served || cc.QueueNs != 0 {
			return wire.Errorf(cc.Req, "stale scratch leaked into fresh call"), nil
		}
		cc.Served = true
		cc.QueueNs = 42
		return next(cc)
	})
	for i := 0; i < 32; i++ {
		if resp := ch.Dispatch(&wire.Request{ID: uint64(i)}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
}

// TestChainZeroAlloc pins the tentpole's perf bound: dispatching through
// a composed chain allocates exactly as much as calling the root
// directly — composition itself adds zero allocations per call.
func TestChainZeroAlloc(t *testing.T) {
	resp := &wire.Response{}
	root := func(cc *CallCtx) (*wire.Response, error) { return resp, nil }
	passthrough := func(cc *CallCtx, next Handler) (*wire.Response, error) { return next(cc) }
	direct := New(root)
	chained := New(root, passthrough, passthrough, passthrough, passthrough)
	req := &wire.Request{ID: 9}
	base := testing.AllocsPerRun(1000, func() { direct.Dispatch(req) })
	withChain := testing.AllocsPerRun(1000, func() { chained.Dispatch(req) })
	if withChain > base {
		t.Fatalf("chain added allocations: %0.1f/call vs %0.1f/call direct", withChain, base)
	}
}

func shedChain(t *testing.T, ic Interceptor) *Chain {
	t.Helper()
	return New(okRoot("served"), ic)
}

// setLevel moves a gauge to v, standing in for the transport's
// around-dispatch bumps.
func setLevel(g *metrics.Gauge, v int64) { g.Add(v - g.Load()) }

// shedCounts reads one shed family's rows as key -> count.
func shedCounts(reg *metrics.Registry, name string) map[string]int64 {
	out := map[string]int64{}
	for _, r := range reg.Snapshot() {
		if r.Name == name {
			out[r.Key] = r.Value
		}
	}
	return out
}

// TestPriorityShed pins the strict-priority admission rule: class p is
// refused at inflight >= at<<p, and the threshold doubling stops at the
// clamp so a hostile priority cannot disable admission control.
func TestPriorityShed(t *testing.T) {
	reg := metrics.New()
	inflight := reg.Gauge("overload.inflight")
	ch := shedChain(t, Priority(4, reg))
	call := func(prio uint32) *wire.Response {
		return ch.Dispatch(&wire.Request{ID: 1, Priority: prio})
	}

	setLevel(inflight, 3)
	if resp := call(0); resp.Err != "" {
		t.Fatalf("class 0 under threshold shed: %s", resp.Err)
	}
	setLevel(inflight, 4)
	if resp := call(0); !strings.HasPrefix(resp.Err, "load-shed:") {
		t.Fatalf("class 0 at threshold not shed: %+v", resp)
	}
	if resp := call(1); resp.Err != "" {
		t.Fatalf("class 1 shed below its doubled threshold: %s", resp.Err)
	}
	setLevel(inflight, 8)
	if resp := call(1); !strings.HasPrefix(resp.Err, "load-shed:") {
		t.Fatalf("class 1 at 2x threshold not shed: %+v", resp)
	}
	// The clamp: class 40 does not get 4<<40 slots — it saturates at
	// the class-8 threshold.
	setLevel(inflight, 4<<8)
	if resp := call(40); !strings.HasPrefix(resp.Err, "load-shed:") {
		t.Fatalf("hostile priority escaped the clamp: %+v", resp)
	}

	// Each refusal bumped exactly one row: its clamped class.
	if s := shedCounts(reg, "shed.priority"); len(s) != 3 || s["0"] != 1 || s["1"] != 1 || s["8"] != 1 {
		t.Fatalf("per-class shed table = %v", s)
	}
}

// TestFairShareShed pins the per-tenant rule: once the global gauge
// reaches at, a tenant holding more than its 1/active share is refused
// while tenants within share pass.
func TestFairShareShed(t *testing.T) {
	reg := metrics.New()
	var inside atomic.Int64
	block := make(chan struct{})
	ch := New(func(cc *CallCtx) (*wire.Response, error) {
		inside.Add(1)
		<-block
		return okRoot("served")(cc)
	}, FairShare(8, reg))

	// Park 6 hog calls and 1 meek call inside the chain while the global
	// gauge sits below the threshold (policy disengaged, everything
	// admitted), then raise the gauge: two active tenants, so each share
	// is 8/2 = 4 live slots.
	var wg sync.WaitGroup
	served := make(chan *wire.Response, 7)
	for i := 0; i < 7; i++ {
		caller := "hog"
		if i == 6 {
			caller = "meek"
		}
		wg.Add(1)
		go func(caller string) {
			defer wg.Done()
			served <- ch.Dispatch(&wire.Request{ID: 1, Caller: caller})
		}(caller)
	}
	waitFor(t, func() bool { return inside.Load() == 7 })
	setLevel(reg.Gauge("overload.inflight"), 8)

	// The hog holds 6 > 4: its next call is refused.
	if resp := ch.Dispatch(&wire.Request{ID: 2, Caller: "hog"}); !strings.HasPrefix(resp.Err, "load-shed:") {
		t.Fatalf("hog over share not shed: %+v", resp)
	}
	// A second meek call (2 <= 4) passes even at the same global depth.
	done := make(chan *wire.Response, 1)
	go func() { done <- ch.Dispatch(&wire.Request{ID: 3, Caller: "meek"}) }()
	close(block)
	if resp := <-done; resp.Err != "" {
		t.Fatalf("within-share tenant shed: %s", resp.Err)
	}
	wg.Wait()
	close(served)
	for resp := range served {
		if resp.Err != "" {
			t.Fatalf("parked call refused: %s", resp.Err)
		}
	}

	s := shedCounts(reg, "shed.fairshare")
	if s["hog"] == 0 {
		t.Fatalf("hog missing from per-tenant shed table: %v", s)
	}
	if s["meek"] != 0 {
		t.Fatalf("meek wrongly shed: %v", s)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairShareTenantFold pins the bounded table: past
// metrics.FamilyMax distinct callers, new tenants compete for the
// single "~other" share instead of growing the table.
func TestFairShareTenantFold(t *testing.T) {
	var f fairTable
	for i := 0; i < metrics.FamilyMax; i++ {
		f.tenants.Get(tenantKey(fmt.Sprintf("tenant-%03d", i)))
	}
	if f.tenants.Get("one-too-many") != f.tenants.Get("another") {
		t.Fatal("overflow tenants did not fold into a shared slot")
	}
	if f.tenants.Get("one-too-many") != f.tenants.Get(metrics.Other) {
		t.Fatal("overflow slot is not ~other")
	}
}

// TestCoDel drives the controller with a fake clock and pins the classic
// shape: below-target waits never drop; above-target waits drop only
// after a full interval, then at inverse-sqrt spacing; a dip below
// target resets the cycle.
func TestCoDel(t *testing.T) {
	reg := metrics.New()
	clock := int64(0)
	now := func() int64 { return clock }
	ch := New(okRoot("served"), CoDel(5*time.Millisecond, 100*time.Millisecond, reg, now))
	call := func(waitUs uint64) bool {
		resp := ch.Dispatch(&wire.Request{ID: 1, SlotWaitUs: waitUs})
		return strings.HasPrefix(resp.Err, "load-shed:")
	}

	// Below target: never drops, at any time.
	for i := 0; i < 10; i++ {
		clock += int64(50 * time.Millisecond)
		if call(1000) {
			t.Fatal("dropped below target")
		}
	}
	// First above-target observation arms the window but must not drop.
	if call(10_000) {
		t.Fatal("dropped on first above-target observation")
	}
	// Still inside the interval: no drop.
	clock += int64(50 * time.Millisecond)
	if call(10_000) {
		t.Fatal("dropped inside the first interval")
	}
	// A full interval above target: the drop cycle starts.
	clock += int64(60 * time.Millisecond)
	if !call(10_000) {
		t.Fatal("no drop after a full interval above target")
	}
	// Next drop is scheduled interval/sqrt(1) later; before it, pass.
	clock += int64(50 * time.Millisecond)
	if call(10_000) {
		t.Fatal("dropped before the control-law spacing elapsed")
	}
	clock += int64(60 * time.Millisecond)
	if !call(10_000) {
		t.Fatal("no second drop after the control-law spacing")
	}
	// Recovery: one below-target wait resets the controller entirely.
	if call(1000) {
		t.Fatal("dropped a below-target wait during recovery")
	}
	clock += int64(500 * time.Millisecond)
	if call(10_000) {
		t.Fatal("above-target after reset dropped without re-arming the window")
	}
	if got := reg.Counter("shed.codel").Load(); got != 2 {
		t.Fatalf("shed.codel = %d, want 2", got)
	}
}

// TestShedConfigEnabled pins the zero-value-off contract.
func TestShedConfigEnabled(t *testing.T) {
	if (ShedConfig{}).Enabled() {
		t.Fatal("zero config reads enabled")
	}
	for _, c := range []ShedConfig{
		{PriorityAt: 1}, {FairShareAt: 1}, {CoDelTarget: time.Millisecond},
	} {
		if !c.Enabled() {
			t.Fatalf("%+v reads disabled", c)
		}
	}
}

// TestShedNilRegistry pins that the shedding interceptors need no
// registry: built from a nil one they count into unregistered
// instruments, and with no transport moving their private inflight
// gauge they never engage.
func TestShedNilRegistry(t *testing.T) {
	ch := New(okRoot("served"), Priority(1, nil), FairShare(1, nil), CoDel(time.Millisecond, 0, nil, nil))
	if resp := ch.Dispatch(&wire.Request{ID: 1, Caller: "x"}); resp.Err != "" {
		t.Fatalf("unregistered shedding refused a call: %s", resp.Err)
	}
}
