package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Histogram layout: indexes [0,128) are exact values; above that, each
// major octave m (values in [2^(m-1), 2^m), m >= 8) contributes 16
// buckets selected by the four bits below the leading bit.
const (
	histExact  = 128 // exact buckets for v < 128
	histMinMaj = 8   // first log-linear octave: values >= 128 = 2^7
	histSub    = 16  // linear sub-buckets per octave
	histMajors = 64 - (histMinMaj - 1)
	histSize   = histExact + histMajors*histSub
)

// Hist is an HDR-style log-linear latency histogram over nanosecond
// durations: values below 128ns land in exact one-ns buckets, larger
// ones in 16 linear sub-buckets per power of two, bounding relative
// quantile error at 1/32 (~3%) across the full uint64 range.  Buckets
// are plain atomic counters, so Observe is lock-free and safe at any
// lock tier.
type Hist struct {
	buckets [histSize]atomic.Uint64
	count   atomic.Uint64
	max     atomic.Uint64
}

// histIndex maps a value to its bucket.
func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	maj := bits.Len64(v) // 2^(maj-1) <= v < 2^maj, maj >= 8
	sub := (v >> (maj - 5)) & (histSub - 1)
	return histExact + (maj-histMinMaj)*histSub + int(sub)
}

// histValue is the representative (midpoint) value of a bucket.
func histValue(idx int) uint64 {
	if idx < histExact {
		return uint64(idx)
	}
	idx -= histExact
	maj := idx/histSub + histMinMaj
	sub := uint64(idx % histSub)
	lo := uint64(1)<<(maj-1) | sub<<(maj-5)
	return lo + uint64(1)<<(maj-5)/2
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// quantile walks the buckets for the q-th (0..1) value.  Counts may
// move under a concurrent snapshot; the result is approximate in the
// same best-effort sense as any other snapshot.
func (h *Hist) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < histSize; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return histValue(i)
		}
	}
	return h.max.Load()
}

// rows renders the histogram as one row, omitted when no value was
// ever observed.
func (h *Hist) rows(out []Row, name, key string) []Row {
	n := h.count.Load()
	if n == 0 {
		return out
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	return append(out, Row{
		Name:   name,
		Key:    key,
		Kind:   "hist",
		Value:  int64(n),
		P50us:  us(h.quantile(0.50)),
		P99us:  us(h.quantile(0.99)),
		P999us: us(h.quantile(0.999)),
		MaxUs:  us(h.max.Load()),
	})
}
