package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"rafda/internal/metrics"
)

func TestRingOverwritesOldest(t *testing.T) {
	r := New("n", 64)
	if r.Cap() != 64 {
		t.Fatalf("cap %d, want 64", r.Cap())
	}
	for i := 0; i < 100; i++ {
		r.Emit(&Span{Trace: 1, ID: uint64(i + 1), Kind: KindServer, Dur: int64(i)})
	}
	if r.Len() != 64 {
		t.Fatalf("len %d, want 64 after wrap", r.Len())
	}
	if r.Emitted() != 100 {
		t.Fatalf("emitted %d, want 100", r.Emitted())
	}
	spans := r.Spans()
	if len(spans) != 64 {
		t.Fatalf("snapshot %d spans, want 64", len(spans))
	}
	// Oldest-first: the first 36 emissions were overwritten.
	if spans[0].ID != 37 || spans[63].ID != 100 {
		t.Fatalf("window [%d, %d], want [37, 100]", spans[0].ID, spans[63].ID)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{
		{0, DefaultSpans}, {-5, DefaultSpans}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := New("n", c.ask).Cap(); got != c.want {
			t.Fatalf("capacity %d rounded to %d, want %d", c.ask, got, c.want)
		}
	}
}

func TestNewIDUniqueNonzero(t *testing.T) {
	r := New("n", 64)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := r.NewID()
		if id == 0 {
			t.Fatal("zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %#x", id)
		}
		seen[id] = true
	}
}

// TestConcurrentWrapRace is the satellite invariant: many emitters
// wrapping the ring concurrently with snapshot readers, under -race.
// Emitters must never block and the snapshot must only ever see fully
// published spans.
func TestConcurrentWrapRace(t *testing.T) {
	reg := metrics.New()
	r := NewIn(reg, "n", 128)
	const emitters = 8
	const each = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Emit(&Span{Trace: uint64(g + 1), ID: r.NewID(),
					Kind: Kind(i % int(numKinds)), Dur: int64(i), Queue: int64(i % 3)})
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range r.Spans() {
					if sp.ID == 0 {
						t.Error("snapshot saw an unpublished span")
						return
					}
				}
				r.Stats()
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Emitted(); got != emitters*each {
		t.Fatalf("emitted %d, want %d", got, emitters*each)
	}
	if r.Len() != 128 {
		t.Fatalf("len %d, want full ring", r.Len())
	}
}

// TestEmitNeverBlocks pins the lock-freedom bound coarsely: a full
// ring with no reader draining it still absorbs emissions immediately.
func TestEmitNeverBlocks(t *testing.T) {
	r := New("n", 64)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100000; i++ {
			r.Emit(&Span{Trace: 1, ID: uint64(i + 1), Kind: KindClient})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("emitter blocked")
	}
}

func TestStatsIncludesQueueSplit(t *testing.T) {
	reg := metrics.New()
	r := NewIn(reg, "n", 64)
	r.Emit(&Span{Trace: 1, ID: 1, Kind: KindServer, Dur: 1000, Queue: 500})
	rows := reg.Snapshot()
	if len(rows) != 2 || rows[0].Name != "trace.kind" || rows[0].Key != "server" || rows[1].Name != "trace.queue" {
		t.Fatalf("want the server kind row and the queue row, got %+v", rows)
	}
}

func TestSpanKindJSONRoundTrip(t *testing.T) {
	sp := Span{Trace: 1, ID: 2, Parent: 3, Node: "n", Kind: KindReplicaRead,
		Name: "read", Dur: 42}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != sp {
		t.Fatalf("round trip:\n%+v\n%+v", sp, back)
	}
}
