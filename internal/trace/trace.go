// Package trace is the per-node flight recorder: every logical call —
// proxy send, server dispatch, dedup verdict, migration, replica read,
// write barrier, transport failover — emits spans into a bounded
// lock-free ring buffer with fixed memory that overwrites the oldest
// entry, so tracing can stay on in production at negligible cost and a
// post-mortem always has the recent causal history.
//
// A span context (trace id + span id) crosses the wire as a trailing
// request extension and rides the VM environment as baggage between a
// server dispatch and the nested proxy calls it makes, so forwarded
// retries, migration re-sends and replica fan-outs all stay on the
// trace that caused them.  Spans are stored node-locally; a reader
// (rafdac, OpIntrospect) assembles the cross-node call tree by parent
// span id.
//
// Latency digests — per span kind, the server gate-wait split, and
// served-call latency per op and per tenant — are histograms registered
// in the node's metrics registry (internal/metrics), so the unified
// snapshot enumerates them alongside every other plane's counters.
//
// Concurrency contract (docs/CONCURRENCY.md §14): Emit takes no locks
// and never blocks — one atomic fetch-add claims a slot, one atomic
// pointer store publishes the span, and histogram buckets are plain
// atomic counters.  Emission is therefore safe from any tier of the
// node's lock hierarchy, including inside object gates and under the
// replication fan-out mutex.
package trace

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync/atomic"
	"time"

	"rafda/internal/metrics"
)

// Kind classifies a span by the subsystem that emitted it.  Histograms
// are kept per kind ("trace.kind"), so p50/p99/p999 are answerable per
// op class.
type Kind uint8

const (
	// KindClient is a proxy call site: one remote send (including any
	// in-pool failover attempts) measured caller-side.
	KindClient Kind = iota
	// KindServer is an inbound dispatch executing on the target object,
	// with the gate wait recorded separately from the run time.
	KindServer
	// KindDedup is a duplicate-delivery verdict: replay, park or stale.
	KindDedup
	// KindReplicaRead is a read served at (or forwarded by) a replica.
	KindReplicaRead
	// KindBarrier is a primary's replica-write fan-out barrier.
	KindBarrier
	// KindMigration is a drain→ship→morph (or via-home re-send) leg.
	KindMigration
	// KindFailover is one failed transport delivery attempt inside the
	// pool's shard-failover loop.
	KindFailover

	numKinds
)

// kindNames doubles as the JSON encoding, so recorded spans read as
// "server"/"client" instead of opaque ordinals.
var kindNames = [numKinds]string{
	"client", "server", "dedup", "replica-read", "barrier",
	"migration", "failover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind by name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON produces (rafdac decodes
// introspection snapshots back into Span values).
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown span kind %q", s)
}

// Ctx is the causal context a span runs under: the trace it belongs to
// and the parent span id.  The zero Ctx means "no trace yet" — the
// next emission starts a new root.
type Ctx struct {
	Trace uint64
	Span  uint64
}

// Span is one recorded event.  Durations are nanoseconds; Start is
// wall-clock UnixNano so cross-node assembly can order spans roughly
// even without a parent edge.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Node   string `json:"node,omitempty"`
	Kind   Kind   `json:"kind"`
	Name   string `json:"name"`
	Target string `json:"target,omitempty"`
	Start  int64  `json:"start"`
	Queue  int64  `json:"queue,omitempty"`
	Dur    int64  `json:"dur"`
	Note   string `json:"note,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Ctx returns the context for children of this span; zero for a nil
// span, which is what an untraced caller holds.
func (s *Span) Ctx() Ctx {
	if s == nil {
		return Ctx{}
	}
	return Ctx{Trace: s.Trace, Span: s.ID}
}

// Recorder is the bounded flight recorder: a power-of-two ring of
// atomically published spans plus the latency histograms.  Memory
// is fixed at construction (cap slots); writers never block and never
// wait for readers — a snapshot may miss a slot being overwritten
// mid-read, which is the accepted cost of lock-freedom.
type Recorder struct {
	node  string
	mask  uint64
	slots []atomic.Pointer[Span]
	pos   atomic.Uint64 // total spans ever emitted; next slot is pos&mask
	ids   atomic.Uint64 // id sequence, whitened through splitmix64
	seed  uint64
	block atomic.Pointer[spanBlock] // NewSpan's current allocation batch
	kinds [numKinds]*metrics.Hist
	queue *metrics.Hist // gate-wait split of server spans

	// Keyed distributions for the SLO plane: served-call latency by
	// dispatched method and by caller identity (tenant), fed by
	// ObserveCall, cardinality-capped by the family.
	ops     *metrics.Family[metrics.Hist]
	tenants *metrics.Family[metrics.Hist]
}

// spanBlockSize is NewSpan's allocation batch: spans are bump-allocated
// out of blocks this large, so the per-span share of the allocator's
// work (size-class lookup, heap bitmap, GC bookkeeping) drops by two
// orders of magnitude on the traced hot path.  A block stays reachable
// until every one of its spans has rolled out of the ring; emission
// order tracks allocation order closely (spans are short-lived between
// NewSpan and Emit), so live blocks stay near ring-capacity/blocksize.
const spanBlockSize = 128

type spanBlock struct {
	next  atomic.Uint32 // bump index of the next unclaimed span
	spans [spanBlockSize]Span
}

// NewSpan hands out a zeroed span for the caller to fill and Emit.
// Lock-free: a bump fetch-add claims a slot in the current block; the
// goroutine that finds the block exhausted CASes in a fresh one, and a
// loser of that race simply retries against the winner's block.  Spans
// are never reused, so the usual single-writer-then-publish discipline
// (fill the span, then Emit) is exactly as safe as with a heap-fresh
// span.
func (r *Recorder) NewSpan() *Span {
	for {
		b := r.block.Load()
		if b != nil {
			if i := b.next.Add(1) - 1; i < spanBlockSize {
				return &b.spans[i]
			}
			r.block.CompareAndSwap(b, nil) // retire the exhausted block
		}
		nb := new(spanBlock)
		nb.next.Store(1)
		if r.block.CompareAndSwap(nil, nb) {
			return &nb.spans[0]
		}
	}
}

// recorderNonce makes two same-named recorders in one process (test
// fixtures) generate disjoint id streams.
var recorderNonce atomic.Uint64

// DefaultSpans is the ring capacity when the node config leaves it
// unset: 4096 spans ≈ a few hundred KB, enough recent history for a
// post-mortem without mattering to a node's footprint.
const DefaultSpans = 4096

// New builds a recorder whose ring holds capacity spans (rounded up to
// a power of two, floor 64; <=0 selects DefaultSpans), recording its
// histograms into unregistered instruments.
func New(node string, capacity int) *Recorder { return NewIn(nil, node, capacity) }

// NewIn is New with the histograms registered in reg: "trace.kind"
// (keyed by span kind), "trace.queue", "trace.op" and "trace.tenant".
func NewIn(reg *metrics.Registry, node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpans
	}
	if capacity < 64 {
		capacity = 64
	}
	size := 1 << bits.Len64(uint64(capacity-1))
	h := fnv.New64a()
	h.Write([]byte(node))
	seed := h.Sum64() ^ uint64(time.Now().UnixNano()) ^ (recorderNonce.Add(1) << 32)
	r := &Recorder{
		node:    node,
		mask:    uint64(size - 1),
		slots:   make([]atomic.Pointer[Span], size),
		seed:    seed,
		queue:   reg.Hist("trace.queue"),
		ops:     reg.Hists("trace.op"),
		tenants: reg.Hists("trace.tenant"),
	}
	kinds := reg.Hists("trace.kind")
	for k := range r.kinds {
		r.kinds[k] = kinds.Get(kindNames[k])
	}
	return r
}

// splitmix64 whitens a counter into a well-distributed 64-bit id.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID mints a process-unique nonzero id for a trace or span.
func (r *Recorder) NewID() uint64 {
	for {
		if id := splitmix64(r.seed + r.ids.Add(1)); id != 0 {
			return id
		}
	}
}

// Emit records one completed span.  Lock-free: a fetch-add claims the
// slot, a pointer store publishes it.  The span must not be mutated by
// the caller afterwards.
func (r *Recorder) Emit(s *Span) {
	if r == nil || s == nil {
		return
	}
	if s.Node == "" {
		s.Node = r.node
	}
	if s.Kind < numKinds {
		r.kinds[s.Kind].Observe(uint64(s.Dur))
	}
	if s.Queue > 0 {
		r.queue.Observe(uint64(s.Queue))
	}
	seq := r.pos.Add(1) - 1
	r.slots[seq&r.mask].Store(s)
}

// Len reports how many spans the ring currently holds.
func (r *Recorder) Len() int {
	if n := r.pos.Load(); n < uint64(len(r.slots)) {
		return int(n)
	}
	return len(r.slots)
}

// Cap reports the fixed ring capacity.
func (r *Recorder) Cap() int { return len(r.slots) }

// Emitted reports the total spans ever emitted (including overwritten
// ones) — Emitted−Len is how much history the ring has dropped.
func (r *Recorder) Emitted() uint64 { return r.pos.Load() }

// Spans snapshots the ring oldest-first.  Concurrent emitters may
// overwrite slots mid-walk; the snapshot is best-effort recent history,
// never a consistency point.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	end := r.pos.Load()
	start := uint64(0)
	if end > uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	out := make([]Span, 0, end-start)
	for seq := start; seq < end; seq++ {
		if sp := r.slots[seq&r.mask].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	return out
}

// ObserveCall feeds one served call into the per-op and per-tenant
// histograms.  op is the dispatched method, tenant the caller identity
// (the wire Caller endpoint); empty strings skip their axis.  Lock-free
// and nil-safe, so dispatch can call it unconditionally.
func (r *Recorder) ObserveCall(op, tenant string, durNs int64) {
	if r == nil || durNs < 0 {
		return
	}
	if op != "" {
		r.ops.Get(op).Observe(uint64(durNs))
	}
	if tenant != "" {
		r.tenants.Get(tenant).Observe(uint64(durNs))
	}
}

// Stats is the ring's occupancy for the unified metrics snapshot (the
// latency digests are registry rows).
type Stats struct {
	Spans    int    `json:"spans"`
	Capacity int    `json:"capacity"`
	Emitted  uint64 `json:"emitted"`
}

// Stats snapshots the ring's occupancy.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{Spans: r.Len(), Capacity: r.Cap(), Emitted: r.Emitted()}
}
