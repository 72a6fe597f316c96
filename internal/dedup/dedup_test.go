package dedup

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rafda/internal/wire"
)

func tok(caller string, seq, ack uint64) *wire.CallToken {
	return &wire.CallToken{Caller: caller, Seq: seq, Ack: ack}
}

func TestIssuerStampAndWatermark(t *testing.T) {
	iss := NewIssuer("n1!1")
	var reqs [4]wire.Request
	for i := range reqs {
		seq := iss.Stamp(&reqs[i])
		if seq != uint64(i+1) {
			t.Fatalf("seq %d want %d", seq, i+1)
		}
		if reqs[i].Token.Caller != "n1!1" || reqs[i].Token.Seq != seq {
			t.Fatalf("bad token %+v", reqs[i].Token)
		}
	}
	// Out-of-order settlement: the watermark only advances over a
	// contiguous finished prefix.
	iss.Finish(3)
	iss.Finish(2)
	if got := iss.Ack(); got != 0 {
		t.Fatalf("ack %d before seq 1 finished, want 0", got)
	}
	iss.Finish(1)
	if got := iss.Ack(); got != 3 {
		t.Fatalf("ack %d after contiguous finish, want 3", got)
	}
	// The next stamped token piggybacks the watermark.
	var r wire.Request
	iss.Stamp(&r)
	if r.Token.Ack != 3 {
		t.Fatalf("piggybacked ack %d want 3", r.Token.Ack)
	}
}

func TestTableExecuteReplayStale(t *testing.T) {
	tab := NewTable(8)
	e, v := tab.Begin(tok("c", 1, 0), "g1")
	if v != Execute {
		t.Fatalf("first delivery verdict %v want Execute", v)
	}
	tab.Complete("c", e, &wire.Response{ID: 10, Result: wire.Value{Kind: wire.KInt, Int: 42}})

	// Duplicate of a completed call replays the recorded response,
	// re-addressed to the duplicate's wire id.
	e2, v := tab.Begin(tok("c", 1, 0), "g1")
	if v != Replay {
		t.Fatalf("duplicate verdict %v want Replay", v)
	}
	resp := e2.Response(99)
	if resp.ID != 99 || resp.Result.Int != 42 {
		t.Fatalf("replayed response %+v", resp)
	}

	// The caller acks seq 1: the entry retires and a late duplicate is
	// rejected, never re-executed.
	if _, v := tab.Begin(tok("c", 2, 1), "g1"); v != Execute {
		t.Fatal("fresh seq 2 should execute")
	}
	if _, v := tab.Begin(tok("c", 1, 1), "g1"); v != Stale {
		t.Fatalf("retired duplicate verdict %v want Stale", v)
	}
	if tab.replayHits.Load() != 1 || tab.staleRejected.Load() != 1 || tab.retired.Load() != 1 {
		t.Fatalf("replay %d stale %d retired %d", tab.replayHits.Load(), tab.staleRejected.Load(), tab.retired.Load())
	}
}

func TestDuplicateWhileInFlightParks(t *testing.T) {
	tab := NewTable(8)
	e, v := tab.Begin(tok("c", 1, 0), "g1")
	if v != Execute {
		t.Fatal("first delivery should execute")
	}
	got := make(chan int64, 1)
	go func() {
		dup, v := tab.Begin(tok("c", 1, 0), "g1")
		if v != Replay {
			got <- -1
			return
		}
		got <- dup.Response(2).Result.Int
	}()
	// Wait until the duplicate is actually parked (the counter bumps
	// before the wait), then complete the first attempt: the duplicate
	// must resume with the recorded response.
	for tab.parked.Load() == 0 {
		runtime.Gosched()
	}
	tab.Complete("c", e, &wire.Response{ID: 1, Result: wire.Value{Kind: wire.KInt, Int: 7}})
	if r := <-got; r != 7 {
		t.Fatalf("parked duplicate got %d want 7", r)
	}
	if p := tab.parked.Load(); p != 1 {
		t.Fatalf("parked counter %d want 1", p)
	}
}

// TestManyDuplicatesShareOnePark: the first duplicate to park makes the
// entry's done channel, later ones wait on the same channel, and one
// Complete wakes them all with the recorded response.
func TestManyDuplicatesShareOnePark(t *testing.T) {
	const dups = 8
	tab := NewTable(8)
	e, v := tab.Begin(tok("c", 1, 0), "g1")
	if v != Execute {
		t.Fatal("first delivery should execute")
	}
	if e.done != nil {
		t.Fatal("an entry nobody parked on already has a done channel")
	}
	got := make(chan int64, dups)
	for range dups {
		go func() {
			dup, v := tab.Begin(tok("c", 1, 0), "g1")
			if v != Replay {
				got <- -1
				return
			}
			got <- dup.Response(2).Result.Int
		}()
	}
	for tab.parked.Load() < dups {
		runtime.Gosched()
	}
	tab.Complete("c", e, &wire.Response{ID: 1, Result: wire.Value{Kind: wire.KInt, Int: 7}})
	for range dups {
		if r := <-got; r != 7 {
			t.Fatalf("parked duplicate got %d want 7", r)
		}
	}
}

// TestExecutePathAllocs pins the dedup window's cost on a call nobody
// re-delivers: Begin then Complete allocate the entry and nothing else.
func TestExecutePathAllocs(t *testing.T) {
	tab := NewTable(0)
	resp := &wire.Response{ID: 1}
	tk := wire.CallToken{Caller: "c", Seq: 1}
	e, _ := tab.Begin(&tk, "g1") // creates the caller's window
	tab.Complete(tk.Caller, e, resp)
	allocs := testing.AllocsPerRun(1000, func() {
		tk.Ack = tk.Seq // the caller has the previous response
		tk.Seq++
		e, v := tab.Begin(&tk, "g1")
		if v != Execute {
			t.Fatalf("seq %d verdict %v", tk.Seq, v)
		}
		tab.Complete(tk.Caller, e, resp)
	})
	if allocs != 1 {
		t.Fatalf("Begin+Complete allocate %.1f times; want 1", allocs)
	}
}

// TestEvictionBoundsWindow pins the replay-cache bound: completed
// entries past the cap evict in ascending seq order, the retired
// watermark advances over them, and a late duplicate of an evicted call
// is Stale — at-most-once is preserved past the cache, at the cost of
// replay.
func TestEvictionBoundsWindow(t *testing.T) {
	const cap = 4
	tab := NewTable(cap)
	for seq := uint64(1); seq <= 10; seq++ {
		e, v := tab.Begin(tok("c", seq, 0), "g1")
		if v != Execute {
			t.Fatalf("seq %d verdict %v", seq, v)
		}
		tab.Complete("c", e, &wire.Response{ID: seq})
	}
	if n := tab.entries.Load(); n != cap {
		t.Fatalf("live entries %d want %d", n, cap)
	}
	if hw := tab.entries.HighWater(); hw > cap+1 {
		t.Fatalf("high water %d exceeded cap+1", hw)
	}
	// Seqs 1..6 were evicted: duplicates are rejected, not executed.
	if _, v := tab.Begin(tok("c", 3, 0), "g1"); v != Stale {
		t.Fatalf("evicted duplicate verdict %v want Stale", v)
	}
	// Seqs 7..10 still replay.
	if _, v := tab.Begin(tok("c", 8, 0), "g1"); v != Replay {
		t.Fatalf("cached duplicate verdict %v want Replay", v)
	}
}

// TestEvictionSparesUndeliveredSequence: one thread of a caller stamps a
// sequence and is descheduled before its request leaves; the caller's
// other threads complete more than a cap's worth of later calls, so the
// cache evicts.  The delayed call has never executed and must — eviction
// used to advance the watermark over it and refuse it as a duplicate of
// a retired call — while duplicates of the calls eviction did drop are
// still rejected, and the tombstones that tell the two apart are
// themselves bounded and pruned by the caller's ack.
func TestEvictionSparesUndeliveredSequence(t *testing.T) {
	const cap = 4
	tab := NewTable(cap)
	run := func(seq, ack uint64) {
		t.Helper()
		e, v := tab.Begin(tok("c", seq, ack), "g1")
		if v != Execute {
			t.Fatalf("seq %d verdict %v want Execute", seq, v)
		}
		tab.Complete("c", e, &wire.Response{ID: seq})
	}
	// Seq 1 is stamped but delayed; the floor stays 0 while 2..20 run.
	for seq := uint64(2); seq <= 20; seq++ {
		run(seq, 0)
	}
	if _, v := tab.Begin(tok("c", 5, 0), "g1"); v != Stale {
		t.Fatalf("duplicate of an evicted call: verdict %v want Stale", v)
	}
	run(1, 0) // arrives at last: a first delivery, not a duplicate
	if _, v := tab.Begin(tok("c", 1, 0), "g1"); v == Execute {
		t.Fatal("the delayed call executed twice")
	}

	// The caller's ack covers everything so far: tombstones go with it.
	run(21, 20)
	w := tab.window("c")
	if n := len(w.evicted); n != 0 {
		t.Fatalf("%d tombstones survive the ack that covers them", n)
	}

	// A caller that never acks cannot grow the tombstones without
	// bound: past tombstoneFactor*cap the watermark takes over.
	for seq := uint64(23); seq < 23+2*tombstoneFactor*cap; seq++ {
		run(seq, 20)
	}
	if n := len(w.evicted); n > tombstoneFactor*cap {
		t.Fatalf("%d tombstones exceed the bound %d", n, tombstoneFactor*cap)
	}
	if _, v := tab.Begin(tok("c", 22, 20), "g1"); v != Stale {
		t.Fatalf("sequence below the advanced watermark: verdict %v want Stale", v)
	}
	if n := tab.entries.Load(); n != cap {
		t.Fatalf("live entries %d want %d", n, cap)
	}
}

// TestWatermarkRetirementUnderWraparound drives many concurrent callers
// through small windows with acks trailing behind, checking (under
// -race) that retirement, eviction and parking stay consistent while
// the eviction cursor wraps past the cap many times over.
func TestWatermarkRetirementUnderWraparound(t *testing.T) {
	const (
		callers = 4
		perSeq  = 200
		cap     = 8
	)
	tab := NewTable(cap)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		caller := fmt.Sprintf("c%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ack uint64
			for seq := uint64(1); seq <= perSeq; seq++ {
				e, v := tab.Begin(tok(caller, seq, ack), "g1")
				switch v {
				case Execute:
					tab.Complete(caller, e, &wire.Response{ID: seq})
				case Replay, Stale:
					t.Errorf("%s seq %d unexpected verdict %v", caller, seq, v)
					return
				}
				// Ack trails several sequences behind, like a pipelined
				// caller's piggybacked watermark.
				if seq > 3 {
					ack = seq - 3
				}
			}
		}()
	}
	wg.Wait()
	if n := tab.entries.Load(); n > callers*cap {
		t.Fatalf("live entries %d exceed bound %d", n, callers*cap)
	}
	if hw := tab.entries.HighWater(); hw > int64(callers*(cap+1)) {
		t.Fatalf("high water %d exceeds bound %d", hw, callers*(cap+1))
	}
	if n := tab.windowCount.Load(); n != callers {
		t.Fatalf("windows %d want %d", n, callers)
	}
}

func TestExtractAdoptMovesHistory(t *testing.T) {
	src := NewTable(8)
	for seq := uint64(1); seq <= 3; seq++ {
		target := "g1"
		if seq == 3 {
			target = "g2" // different object — must not travel
		}
		e, _ := src.Begin(tok("c", seq, 0), target)
		src.Complete("c", e, &wire.Response{ID: seq, Result: wire.Value{Kind: wire.KInt, Int: int64(seq)}})
	}
	shipped := src.ExtractFor("g1")
	if len(shipped) != 2 {
		t.Fatalf("shipped %d entries want 2", len(shipped))
	}
	// After extraction the source no longer replays them...
	if _, v := src.Begin(tok("c", 1, 0), "g1"); v != Execute {
		t.Fatal("extracted entry should be forgotten at source")
	}
	// ...but the destination does, under the object's new GUID.
	dst := NewTable(8)
	dst.Adopt("remote#1", shipped)
	e, v := dst.Begin(tok("c", 2, 0), "remote#1")
	if v != Replay {
		t.Fatalf("adopted duplicate verdict %v want Replay", v)
	}
	if e.Response(5).Result.Int != 2 {
		t.Fatal("adopted entry replays wrong response")
	}
	if dst.adopted.Load() != 2 {
		t.Fatal("adopted counter")
	}
	// Entries at or below the destination's retired watermark are
	// dropped on adoption.
	dst2 := NewTable(8)
	dst2.window("c").retired = 2
	dst2.Adopt("remote#1", shipped)
	if _, v := dst2.Begin(tok("c", 2, 0), "remote#1"); v != Stale {
		t.Fatalf("adoption below watermark should stay Stale, got %v", v)
	}
}

// TestForwardChainRevisitExecutes pins the fix for a distributed
// self-deadlock: tokens propagate across proxy forwards, so a call that
// enters a node as g1, forwards away, and returns down the chain as g3
// (the object migrated twice) delivers the SAME (caller, seq) to this
// node for a different target while the ancestor hop's entry is still
// in flight.  That revisit is the same logical call, not a duplicate
// delivery — it must execute under its own (seq, target) entry instead
// of parking on the ancestor's done channel (which only closes once the
// revisit itself completes: a cycle).
func TestForwardChainRevisitExecutes(t *testing.T) {
	tab := NewTable(8)
	outer, v := tab.Begin(tok("c", 1, 0), "g1")
	if v != Execute {
		t.Fatal("outer hop should execute")
	}
	// Chain revisit under a new target while the outer hop is in flight.
	inner, v := tab.Begin(tok("c", 1, 0), "g3")
	if v != Execute {
		t.Fatalf("chain revisit got verdict %v, want Execute (would deadlock parked behind its own ancestor)", v)
	}
	tab.Complete("c", inner, &wire.Response{ID: 2, Result: wire.Value{Kind: wire.KInt, Int: 9}})
	tab.Complete("c", outer, &wire.Response{ID: 1, Result: wire.Value{Kind: wire.KInt, Int: 9}})

	// A true duplicate delivery — same target — still replays per hop.
	if _, v := tab.Begin(tok("c", 1, 0), "g1"); v != Replay {
		t.Fatalf("duplicate of completed outer hop got %v, want Replay", v)
	}
	if e, v := tab.Begin(tok("c", 1, 0), "g3"); v != Replay {
		t.Fatalf("duplicate of completed revisit got %v, want Replay", v)
	} else if r := e.Response(3).Result.Int; r != 9 {
		t.Fatalf("replayed revisit got %d want 9", r)
	}
	// Acking seq 1 retires every entry of the chain at once.
	if _, v := tab.Begin(tok("c", 2, 1), "g9"); v != Execute {
		t.Fatal("fresh seq should execute")
	}
	if _, v := tab.Begin(tok("c", 1, 1), "g3"); v != Stale {
		t.Fatal("post-ack duplicate should be Stale")
	}
}

// TestEvictionSparesSiblingEntries pins Begin's lookup order: cap
// eviction advances the retired watermark over an evicted sequence, but
// sibling entries at that sequence (same logical call, different target
// on a forwarding chain) can survive in the window — a retry of a
// surviving sibling must park or replay its own entry, not get rejected
// as Stale off the watermark.
func TestEvictionSparesSiblingEntries(t *testing.T) {
	tab := NewTable(1)

	// Two completed siblings of seq 1 (a forwarding chain revisiting
	// this node).  Cap 1 evicts exactly one, advancing the watermark to
	// 1 while the other stays cached below it.
	ea, va := tab.Begin(tok("c", 1, 0), "gA")
	if va != Execute {
		t.Fatalf("first hop verdict %v want Execute", va)
	}
	tab.Complete("c", ea, &wire.Response{Result: wire.Value{Kind: wire.KInt, Int: 11}})
	eb, vb := tab.Begin(tok("c", 1, 0), "gB")
	if vb != Execute {
		t.Fatalf("sibling hop verdict %v want Execute", vb)
	}
	tab.Complete("c", eb, &wire.Response{Result: wire.Value{Kind: wire.KInt, Int: 22}})

	var replays, stales int
	for _, target := range []string{"gA", "gB"} {
		e, v := tab.Begin(tok("c", 1, 0), target)
		switch v {
		case Replay:
			replays++
			if got := e.Response(9).Result.Int; got != 11 && got != 22 {
				t.Fatalf("replayed sibling %s carries wrong response %d", target, got)
			}
		case Stale:
			stales++
		default:
			t.Fatalf("retry of seq-1 sibling %s re-executed (verdict %v)", target, v)
		}
	}
	if replays != 1 || stales != 1 {
		t.Fatalf("sibling retries: %d replays, %d stales; want the cached one to replay and the evicted one to reject", replays, stales)
	}

	// In-flight sibling: seq 2 executes while cap pressure from later
	// sequences pushes the watermark past it.  A duplicate delivery must
	// park on the in-flight entry and replay its response — a Stale
	// rejection here would break the exactly-once replay contract for a
	// transport retry of a still-executing hop.
	ec, vc := tab.Begin(tok("c", 2, 0), "gC")
	if vc != Execute {
		t.Fatalf("in-flight hop verdict %v want Execute", vc)
	}
	e3, _ := tab.Begin(tok("c", 3, 0), "gD")
	tab.Complete("c", e3, &wire.Response{})
	e4, _ := tab.Begin(tok("c", 4, 0), "gE")
	tab.Complete("c", e4, &wire.Response{})

	type res struct {
		e *Entry
		v Verdict
	}
	dup := make(chan res, 1)
	go func() {
		e, v := tab.Begin(tok("c", 2, 0), "gC")
		dup <- res{e, v}
	}()
	tab.Complete("c", ec, &wire.Response{Result: wire.Value{Kind: wire.KInt, Int: 33}})
	got := <-dup
	if got.v != Replay {
		t.Fatalf("duplicate of in-flight sibling verdict %v want Replay", got.v)
	}
	if got.e.Response(5).Result.Int != 33 {
		t.Fatalf("parked duplicate replayed wrong response %+v", got.e.Response(5))
	}
}
