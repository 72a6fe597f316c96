package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Hist
	// Uniform 1..1000 microseconds in ns.
	for i := 1; i <= 1000; i++ {
		h.Observe(uint64(i) * 1000)
	}
	rows := h.rows(nil, "x", "")
	if len(rows) != 1 || rows[0].Value != 1000 || rows[0].Kind != "hist" {
		t.Fatalf("rows: %+v", rows)
	}
	st := rows[0]
	// Log-linear error bound is 1/32; allow 5%.
	near := func(got, want float64) bool {
		return got > want*0.95 && got < want*1.05
	}
	if !near(st.P50us, 500) {
		t.Fatalf("p50 %.1fus, want ~500us", st.P50us)
	}
	if !near(st.P99us, 990) {
		t.Fatalf("p99 %.1fus, want ~990us", st.P99us)
	}
	if st.MaxUs != 1000 {
		t.Fatalf("max %.1fus, want 1000us", st.MaxUs)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i))
	}
	if got := h.quantile(0.5); got != 50 {
		t.Fatalf("small-value p50 = %d, want exactly 50", got)
	}
	if histValue(histIndex(77)) != 77 {
		t.Fatal("exact bucket not exact")
	}
}

// TestGaugeHighWater pins the level/high-water pair under concurrent
// moves: the level returns to zero and the mark stays within the peak
// the movers could reach.
func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Load() != 0 {
		t.Fatalf("level %d, want 0", g.Load())
	}
	if hw := g.HighWater(); hw < 1 || hw > 8 {
		t.Fatalf("high water %d, want 1..8", hw)
	}
}

// TestFamilyFoldsPastCap floods a family with unique keys from several
// goroutines: the key count stays near FamilyMax, the excess lands in
// Other, and no increment is lost.
func TestFamilyFoldsPastCap(t *testing.T) {
	var f Family[Counter]
	const flood = FamilyMax * 3
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < flood/4; i++ {
				f.Get(fmt.Sprintf("k-%d-%d", g, i)).Inc()
			}
		}(g)
	}
	wg.Wait()
	rows := f.rows(nil, "fam", "")
	// Concurrent first uses can overshoot the cap by a few.
	if len(rows) > FamilyMax+8 {
		t.Fatalf("cardinality cap failed: %d rows", len(rows))
	}
	var total, other int64
	for _, r := range rows {
		total += r.Value
		if r.Key == Other {
			other = r.Value
		}
	}
	if total != flood || other == 0 {
		t.Fatalf("total %d (want %d), ~other %d", total, flood, other)
	}
	if f.Get("one-too-many") != f.Get("another") {
		t.Fatal("overflow keys did not share one instrument")
	}
}

// TestRegistrySnapshot pins the registry contract: one name is one
// instrument however often it is asked for, a nil registry hands out
// working unregistered instruments, and the snapshot enumerates every
// instrument sorted by name and key, omitting empty histograms.
func TestRegistrySnapshot(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		r.Counter("b.count").Inc()
	}
	if r.Counter("b.count").Load() != 3 {
		t.Fatal("second lookup returned a different counter")
	}
	r.Gauge("a.level").Add(2)
	r.Gauge("a.level").Add(-1)
	fam := r.Counters("c.fam")
	fam.Get("y").Inc()
	fam.Get("x").Inc()
	fam.Get("x").Inc()
	r.Hist("d.empty")
	r.Hists("e.lat").Get("op").Observe(1500)
	r.EWMAs("f.rtt").Get("p").Observe(2 * time.Microsecond)
	r.EWMAs("f.rtt").Get("unobserved")

	got := r.Snapshot()
	want := []Row{
		{Name: "a.level", Kind: "gauge", Value: 1, High: 2},
		{Name: "b.count", Kind: "counter", Value: 3},
		{Name: "c.fam", Key: "x", Kind: "counter", Value: 2},
		{Name: "c.fam", Key: "y", Kind: "counter", Value: 1},
	}
	if len(got) != len(want)+2 {
		t.Fatalf("snapshot has %d rows, want %d: %+v", len(got), len(want)+2, got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], w)
		}
	}
	if h := got[len(want)]; h.Name != "e.lat" || h.Key != "op" || h.Value != 1 || h.MaxUs != 1.5 {
		t.Fatalf("hist row = %+v", h)
	}
	if e := got[len(want)+1]; e != (Row{Name: "f.rtt", Key: "p", Kind: "ewma", Value: 2000}) {
		t.Fatalf("ewma row = %+v", e)
	}

	var none *Registry
	c := none.Counter("x")
	c.Inc()
	if c.Load() != 1 || none.Counter("x") == c || none.Snapshot() != nil {
		t.Fatal("nil registry must hand out fresh, working, unlisted instruments")
	}
}

// TestEWMA pins the moving average: zero until the first observation,
// which seeds it, then each observation weighs ewmaAlpha.
func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Load() != 0 {
		t.Fatal("unobserved average not zero")
	}
	e.Observe(time.Millisecond)
	if e.Load() != 1e6 {
		t.Fatalf("first observation %v, want it as the seed", e.Load())
	}
	e.Observe(2 * time.Millisecond)
	if want := 0.8*1e6 + 0.2*2e6; e.Load() != want {
		t.Fatalf("average %v, want %v", e.Load(), want)
	}
}

// TestFamilyEach visits every key, Other included, and Counter.Add
// adds exactly.
func TestFamilyEach(t *testing.T) {
	var f Family[Counter]
	for i := 0; i < FamilyMax+5; i++ {
		f.Get(fmt.Sprint(i)).Add(2)
	}
	var keys int
	var sum, other uint64
	f.Each(func(key string, c *Counter) {
		keys++
		sum += c.Load()
		if key == Other {
			other = c.Load()
		}
	})
	if keys != FamilyMax+1 || sum != 2*(FamilyMax+5) || other != 10 {
		t.Fatalf("Each saw %d keys, sum %d, other %d", keys, sum, other)
	}
}
