package transport

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafda/internal/metrics"
	"rafda/internal/wire"
)

// TestDeadlineRejectedAtAdmission pins the overload contract: with the
// single dispatch slot of a MaxInflight=1 server pinned by a stuck
// call, a deadlined request must be rejected at admission — an error
// response, the admission-reject and deadline-expiry counters bumped,
// and, decisively, the handler never runs for it (no slot was
// consumed).  A deadline-free request issued after the rejection still
// gets the slot once the stuck call releases it, proving the reject
// left the semaphore untouched.  Run under -race in CI.
func TestDeadlineRejectedAtAdmission(t *testing.T) {
	reg := metrics.New()
	var handled atomic.Int64
	block := make(chan struct{})
	entered := make(chan struct{})
	tr := NewRRP(Options{MaxInflight: 1, Metrics: reg})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		handled.Add(1)
		if req.Method == "stuck" {
			close(entered)
			<-block
		}
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: req.Method}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Call(&wire.Request{ID: 1, Op: wire.OpInvoke, Method: "stuck"}); err != nil {
			t.Errorf("stuck call: %v", err)
		}
	}()
	<-entered // the only slot is now held

	resp, err := c.Call(&wire.Request{ID: 2, Op: wire.OpInvoke, Method: "doomed",
		DeadlineUs: 2000}) // 2ms budget, slot held indefinitely
	if err != nil {
		t.Fatalf("rejection must arrive as a response, not a transport error: %v", err)
	}
	if !strings.Contains(resp.Err, "deadline expired") {
		t.Fatalf("want admission rejection, got %+v", resp)
	}
	if got := reg.Counter("overload.admission_rejects").Load(); got != 1 {
		t.Fatalf("admission_rejects = %d, want 1", got)
	}
	if got := reg.Counter("overload.deadline_expiries").Load(); got != 1 {
		t.Fatalf("deadline_expiries = %d, want 1", got)
	}
	if got := handled.Load(); got != 1 {
		t.Fatalf("rejected call reached the handler (handled=%d)", got)
	}

	// The reject must not have consumed the slot: release the stuck
	// call and a deadline-free follow-up acquires it normally.
	close(block)
	wg.Wait()
	resp, err = c.Call(&wire.Request{ID: 3, Op: wire.OpInvoke, Method: "after"})
	if err != nil || resp.Result.Str != "after" {
		t.Fatalf("slot leaked by rejection: resp=%+v err=%v", resp, err)
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handled = %d, want 2", got)
	}
	if hw := reg.Gauge("overload.inflight").HighWater(); hw != 1 {
		t.Fatalf("inflight high-water = %d, want 1 (slot never double-granted)", hw)
	}
}

// TestDeadlineAdmissionChargesWait pins the per-hop decrement: a
// deadlined request that *does* get a slot after waiting carries a
// budget reduced by the measured admission wait, visible to the
// handler on the decoded request.
func TestDeadlineAdmissionChargesWait(t *testing.T) {
	var seen atomic.Uint64
	block := make(chan struct{})
	entered := make(chan struct{})
	tr := NewRRP(Options{MaxInflight: 1})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		switch req.Method {
		case "stuck":
			close(entered)
			<-block
		case "waited":
			seen.Store(req.DeadlineUs)
		}
		return &wire.Response{ID: req.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Call(&wire.Request{ID: 1, Op: wire.OpInvoke, Method: "stuck"})
	}()
	<-entered

	const budget = 500_000 // 500ms: far beyond the hold we inject
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Call(&wire.Request{ID: 2, Op: wire.OpInvoke, Method: "waited",
			DeadlineUs: budget}); err != nil {
			t.Errorf("waited call: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let it sit in the admission queue
	close(block)
	wg.Wait()
	<-done
	got := seen.Load()
	if got == 0 || got >= budget {
		t.Fatalf("handler saw budget %dµs, want 0 < budget < %d (wait charged)", got, budget)
	}
	if budget-got < 10_000 {
		t.Fatalf("budget only charged %dµs for a ≥20ms wait", budget-got)
	}
}
