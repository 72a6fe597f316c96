// Package metrics is a node's instrument registry: counters, gauges
// (a live level plus its high-water mark), log-linear latency
// histograms, latency moving averages, and bounded string-keyed
// families of them.  Every plane of a node — transport admission,
// dispatch, dedup, shedding, tracing, call affinity — asks the node's
// Registry for its instruments by name once, at construction, and
// records into the returned pointers: a hot path does an atomic add,
// never a name lookup.  Snapshot enumerates every
// registered instrument as sorted rows, so a reader (the introspection
// plane, rafdac top) needs to know no plane's shape and nothing
// downstream knows which plane owns which instrument.
//
// A nil *Registry hands out fresh unregistered instruments: a bare
// transport or a unit test records into counters nobody enumerates,
// and no recording site needs a nil check.
//
// Recording is lock-free (atomics only), so instruments are safe to
// bump at any tier of the node's lock hierarchy.  Snapshots read each
// instrument atomically but not the set as one consistent cut.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load reads the count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a live level (in-flight dispatch slots, live dedup entries)
// together with the highest level it has reached.
type Gauge struct{ v, hw atomic.Int64 }

// Add moves the level by delta and folds the result into the
// high-water mark.
func (g *Gauge) Add(delta int64) {
	n := g.v.Add(delta)
	for {
		hw := g.hw.Load()
		if n <= hw || g.hw.CompareAndSwap(hw, n) {
			return
		}
	}
}

// Load reads the level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HighWater reads the highest level observed.
func (g *Gauge) HighWater() int64 { return g.hw.Load() }

// ewmaAlpha is the smoothing factor of EWMA: ~the last 10 observations
// dominate.
const ewmaAlpha = 0.2

// EWMA is an exponentially weighted moving average of durations,
// float64 nanoseconds held as bits in a CAS loop.
type EWMA struct {
	bits atomic.Uint64 // 0 = no observation yet
}

// Observe folds d into the average; the first observation seeds it.
func (e *EWMA) Observe(d time.Duration) {
	ns := float64(d.Nanoseconds())
	for {
		old := e.bits.Load()
		next := ns
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*ns
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Load reads the average in nanoseconds, 0 before any observation.
func (e *EWMA) Load() float64 { return math.Float64frombits(e.bits.Load()) }

// FamilyMax caps a family's distinct keys.  Keys arrive off the wire
// (caller endpoints, method names), so without a cap a hostile caller
// could grow node memory one instrument per fabricated key; keys past
// the cap fold into the shared Other instrument.
const FamilyMax = 256

// Other is the key the overflow instrument of a full family reports
// under.
const Other = "~other"

// Family is a bounded set of instruments keyed by an arbitrary string
// (priority class, tenant, method, span kind).  The zero value is ready
// to use.  Get is a sync.Map load on the hit path — no locks.  The key
// count may overshoot FamilyMax by a few under concurrent first uses;
// the bound is approximate, the fold is what matters.
type Family[T any] struct {
	m sync.Map // string -> *T, Other included once the family is full
	n atomic.Int64
}

// Get returns key's instrument, creating it on first use, or the
// shared Other instrument once the family holds FamilyMax keys.
func (f *Family[T]) Get(key string) *T {
	if v, ok := f.m.Load(key); ok {
		return v.(*T)
	}
	if f.n.Load() >= FamilyMax {
		key = Other
		if v, ok := f.m.Load(key); ok {
			return v.(*T)
		}
	}
	v, loaded := f.m.LoadOrStore(key, new(T))
	if !loaded {
		f.n.Add(1)
	}
	return v.(*T)
}

// Each calls fn for every key's instrument, Other included once the
// family is full, in no particular order.
func (f *Family[T]) Each(fn func(key string, v *T)) {
	f.m.Range(func(k, v any) bool {
		fn(k.(string), v.(*T))
		return true
	})
}

// Row is one instrument (or one key of a family) at snapshot time.
type Row struct {
	Name string `json:"name"`
	Key  string `json:"key,omitempty"`
	// Kind is "counter", "gauge", "hist" or "ewma".
	Kind string `json:"kind"`
	// Value is a counter's count, a gauge's level, a histogram's
	// observation count, or an EWMA's current average in nanoseconds.
	Value int64 `json:"value"`
	// High is a gauge's high-water mark.
	High int64 `json:"high,omitempty"`
	// A histogram's quantiles and maximum, in microseconds.
	P50us  float64 `json:"p50_us,omitempty"`
	P99us  float64 `json:"p99_us,omitempty"`
	P999us float64 `json:"p999_us,omitempty"`
	MaxUs  float64 `json:"max_us,omitempty"`
}

// rower is what a registered instrument contributes to a snapshot.
type rower interface {
	rows(out []Row, name, key string) []Row
}

func (c *Counter) rows(out []Row, name, key string) []Row {
	return append(out, Row{Name: name, Key: key, Kind: "counter", Value: int64(c.Load())})
}

func (g *Gauge) rows(out []Row, name, key string) []Row {
	return append(out, Row{Name: name, Key: key, Kind: "gauge", Value: g.Load(), High: g.HighWater()})
}

// rows renders the average as one row, omitted before any observation.
func (e *EWMA) rows(out []Row, name, key string) []Row {
	ns := e.Load()
	if ns == 0 {
		return out
	}
	return append(out, Row{Name: name, Key: key, Kind: "ewma", Value: int64(ns)})
}

func (f *Family[T]) rows(out []Row, name, _ string) []Row {
	f.Each(func(key string, v *T) {
		if r, ok := any(v).(rower); ok {
			out = r.rows(out, name, key)
		}
	})
	return out
}

// Registry names a node's instruments.  The zero value is not usable;
// construct with New.  A nil *Registry is valid and registers nothing.
type Registry struct {
	mu    sync.Mutex
	insts map[string]rower
}

// New returns an empty registry.
func New() *Registry { return &Registry{insts: make(map[string]rower)} }

// instrument returns the instrument registered under name, registering
// a fresh one on first use; two planes asking for one name share it.
// Asking for a registered name as a different kind is a programming
// error and panics.
func instrument[T any, P interface {
	*T
	rower
}](r *Registry, name string) P {
	if r == nil {
		return new(T)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst, ok := r.insts[name]; ok {
		return inst.(P)
	}
	inst := P(new(T))
	r.insts[name] = inst
	return inst
}

// Counter returns the counter registered under name.
func (r *Registry) Counter(name string) *Counter { return instrument[Counter](r, name) }

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge { return instrument[Gauge](r, name) }

// Hist returns the histogram registered under name.
func (r *Registry) Hist(name string) *Hist { return instrument[Hist](r, name) }

// Counters returns the counter family registered under name.
func (r *Registry) Counters(name string) *Family[Counter] {
	return instrument[Family[Counter]](r, name)
}

// Hists returns the histogram family registered under name.
func (r *Registry) Hists(name string) *Family[Hist] { return instrument[Family[Hist]](r, name) }

// EWMAs returns the moving-average family registered under name.
func (r *Registry) EWMAs(name string) *Family[EWMA] { return instrument[Family[EWMA]](r, name) }

// Snapshot enumerates every registered instrument, sorted by name and
// then key.  Histograms and EWMAs that never observed a value are
// omitted: they have nothing to report.
func (r *Registry) Snapshot() []Row {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Row
	for name, inst := range r.insts {
		out = inst.rows(out, name, "")
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key < out[j].Key
	})
	return out
}
