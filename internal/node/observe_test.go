package node

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/metrics"
	"rafda/internal/trace"
	"rafda/internal/wire"
)

// TestDeadlineGateQueueExpiry pins the dispatch-side leg of the
// deadline chain: a deadlined call whose budget is consumed by waiting
// in the target object's gate queue is rejected before its body runs —
// the state is untouched, the expiry is counted, and the error names
// the gate queue.
func TestDeadlineGateQueueExpiry(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	g := n.exports.Ensure(ref.O)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Holds the gate ~60ms (and bumps n to 1).
		resp := n.dispatch(&wire.Request{ID: 1, Op: wire.OpInvoke, GUID: g,
			Method: "slow", Args: []wire.Value{{Kind: wire.KInt, Int: 60_000}}})
		if resp.Err != "" {
			t.Errorf("slow call: %v", resp.Err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let slow() take the gate

	doomed := n.dispatch(&wire.Request{ID: 2, Op: wire.OpInvoke, GUID: g,
		Method: "bump", DeadlineUs: 5000})
	wg.Wait()
	if !strings.Contains(doomed.Err, "deadline expired in gate queue") {
		t.Fatalf("want gate-queue expiry, got %+v", doomed)
	}
	if got := count(n, "overload.deadline_expiries"); got != 1 {
		t.Fatalf("deadline_expiries = %d, want 1", got)
	}
	peek := n.dispatch(&wire.Request{ID: 3, Op: wire.OpInvoke, GUID: g, Method: "peek"})
	if peek.Err != "" || peek.Result.Int != 1 {
		t.Fatalf("expired bump mutated state: %+v", peek)
	}
}

// TestIntrospectConcurrentWithRingWrap hammers a node with invocations
// — wrapping a deliberately tiny span ring and mutating the keyed
// per-op/per-tenant histograms — while concurrently taking metrics and
// spans snapshots.  Every snapshot must be well-formed JSON and the
// monotonic counters (spans emitted, calls served) must never run
// backwards: the lock-free planes may be mid-mutation but a snapshot is
// never torn.  Run under -race in CI.
func TestIntrospectConcurrentWithRingWrap(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res, TraceSpans: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	g := n.exports.Ensure(ref.O)

	const writers = 4
	const callsEach = 400 // writers*callsEach >> ring capacity: guaranteed wrap
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				method := "peek"
				if i%8 == 0 {
					method = "bump"
				}
				resp := n.dispatch(&wire.Request{ID: uint64(w*callsEach + i),
					Op: wire.OpInvoke, GUID: g, Method: method,
					Caller: fmt.Sprintf("tenant-%d", w)})
				if resp.Err != "" {
					t.Errorf("call: %v", resp.Err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	var prevEmitted uint64
	var prevServed int64
	snapshots := 0
	for done := false; !done; {
		select {
		case <-stop:
			done = true // one final snapshot below
		default:
		}
		out, err := n.Introspect("metrics", "")
		if err != nil {
			t.Fatalf("introspect metrics: %v", err)
		}
		var in Introspection
		if err := json.Unmarshal([]byte(out), &in); err != nil {
			t.Fatalf("torn metrics snapshot: %v\n%s", err, out)
		}
		if in.Trace == nil {
			t.Fatal("trace digest missing")
		}
		if in.Trace.Emitted < prevEmitted {
			t.Fatalf("emitted ran backwards: %d -> %d", prevEmitted, in.Trace.Emitted)
		}
		served := rowsNamed(in.Metrics, "node.calls_in")[0].Value
		if served < prevServed {
			t.Fatalf("calls-in ran backwards: %d -> %d", prevServed, served)
		}
		prevEmitted, prevServed = in.Trace.Emitted, served
		if in.Trace.Spans > in.Trace.Capacity {
			t.Fatalf("ring occupancy %d over capacity %d", in.Trace.Spans, in.Trace.Capacity)
		}
		spansOut, err := n.Introspect("spans", "")
		if err != nil {
			t.Fatalf("introspect spans: %v", err)
		}
		var spans []trace.Span
		if err := json.Unmarshal([]byte(spansOut), &spans); err != nil {
			t.Fatalf("torn spans snapshot: %v", err)
		}
		snapshots++
	}
	if snapshots < 2 {
		t.Fatalf("only %d snapshots raced the writers", snapshots)
	}

	// Final state: the ring wrapped, and the keyed views saw every op
	// and tenant.
	final := n.introspection()
	if final.Trace.Emitted <= uint64(final.Trace.Capacity) {
		t.Fatalf("ring never wrapped: emitted %d, cap %d", final.Trace.Emitted, final.Trace.Capacity)
	}
	ops := map[string]int64{}
	for _, row := range rowsNamed(final.Metrics, "trace.op") {
		ops[row.Key] = row.Value
	}
	if ops["peek"] == 0 || ops["bump"] == 0 {
		t.Fatalf("per-op rows missing: %+v", ops)
	}
	tenants := rowsNamed(final.Metrics, "trace.tenant")
	if len(tenants) != writers {
		t.Fatalf("tenant rows = %d, want %d: %+v", len(tenants), writers, tenants)
	}
	var tenantTotal int64
	for _, row := range tenants {
		tenantTotal += row.Value
	}
	if tenantTotal != writers*callsEach {
		t.Fatalf("tenant counts sum to %d, want %d", tenantTotal, writers*callsEach)
	}
}

// rowsNamed returns the snapshot rows of one instrument.
func rowsNamed(rows []metrics.Row, name string) []metrics.Row {
	var out []metrics.Row
	for _, r := range rows {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}
