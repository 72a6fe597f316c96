package intercept

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rafda/internal/metrics"
	"rafda/internal/wire"
)

// The proactive shedding tier: three policies that refuse work while
// the server still has headroom to say no cheaply, instead of queueing
// until deadlines burn out.  All three key off the shared inflight
// gauge ("overload.inflight" in the node's metrics registry, maintained
// by the RRP transport around each dispatch slot) and the
// transport-measured slot wait — they engage only behind transports
// that share the registry.  Each refusal bumps exactly one instrument:
// "shed.priority" keyed by priority class, "shed.fairshare" keyed by
// tenant, or "shed.codel".  Every shed response carries the
// "load-shed:" marker so clients and the E15 harness can bucket them.
//
// Ordering contract (enforced by the node's chain assembly): shedding
// runs after the control plane (ping/gossip/introspect stay answerable
// under overload) and strictly before dedup Begin — a shed must never
// be recorded as a logical call's permanent replay response, or one
// unlucky first attempt would replay its shed to every retry.

// ShedConfig carries the shedding knobs, zero meaning "policy off".
type ShedConfig struct {
	// PriorityAt is the inflight depth at which strict-priority
	// admission engages: class-0 calls shed once the gauge reaches
	// PriorityAt, class-p calls once it reaches PriorityAt<<p.
	PriorityAt int
	// FairShareAt is the inflight depth at which per-tenant fair-share
	// admission engages: past it, a tenant holding more than its
	// 1/active share of FairShareAt slots is shed.
	FairShareAt int
	// CoDelTarget enables the CoDel queue controller: slot waits above
	// the target that persist for a full CoDelInterval start a drop
	// cycle with the classic inverse-sqrt control law.
	CoDelTarget time.Duration
	// CoDelInterval is the CoDel sliding window; defaulted to 100ms
	// (the published rule of thumb) when a target is set without it.
	CoDelInterval time.Duration
}

// Enabled reports whether any policy is configured.
func (c ShedConfig) Enabled() bool {
	return c.PriorityAt > 0 || c.FairShareAt > 0 || c.CoDelTarget > 0
}

// maxPriorityShift caps the admission-threshold doubling so a hostile
// priority value cannot shift the threshold past overflow into
// effectively unbounded admission.
const maxPriorityShift = 8

// tenantKey names a caller in the fair-share and shed tables; both are
// metrics families, so past metrics.FamilyMax distinct callers the
// rest share one "~other" entry — bounded memory under caller-id churn
// at the cost of blurring the long tail.
func tenantKey(caller string) string {
	if caller == "" {
		return "~anonymous"
	}
	return caller
}

// Priority returns the strict-priority admission interceptor: a class-p
// request is shed while the inflight gauge sits at or above
// at<<min(p,maxPriorityShift).  The gauge includes the request's own
// slot (the transport bumps it before dispatch runs), so with at=N the
// N-th concurrent class-0 call is the first one shed — deterministic
// under concurrent arrival.
func Priority(at int, reg *metrics.Registry) Interceptor {
	gauge, shed := reg.Gauge("overload.inflight"), reg.Counters("shed.priority")
	return func(cc *CallCtx, next Handler) (*wire.Response, error) {
		p := cc.Req.Priority
		if p > maxPriorityShift {
			p = maxPriorityShift
		}
		threshold := int64(at) << p
		if inflight := gauge.Load(); inflight >= threshold {
			shed.Get(strconv.Itoa(int(p))).Inc()
			return wire.Errorf(cc.Req,
				"load-shed: priority class %d refused at inflight %d (threshold %d)",
				cc.Req.Priority, inflight, threshold), nil
		}
		return next(cc)
	}
}

// FairShare returns the per-tenant fair-share admission interceptor.
// Each tenant (wire.Request.Caller) has a live inflight counter in a
// bounded table; once the global gauge reaches at, a tenant holding
// more than at/active slots — its equal share of the engaged capacity
// among currently-active tenants — is shed.  The counter is bumped
// before the check (the request counts itself), so with a share of S
// a tenant's S+1-th concurrent call is deterministically the first
// refused no matter how the scheduler interleaves arrivals.
func FairShare(at int, reg *metrics.Registry) Interceptor {
	inflight, shed := reg.Gauge("overload.inflight"), reg.Counters("shed.fairshare")
	f := &fairTable{}
	return func(cc *CallCtx, next Handler) (*wire.Response, error) {
		slot := f.tenants.Get(tenantKey(cc.Req.Caller))
		mine := slot.Add(1)
		if mine == 1 {
			f.active.Add(1)
		}
		release := func() {
			if slot.Add(-1) == 0 {
				f.active.Add(-1)
			}
		}
		if global := inflight.Load(); global >= int64(at) {
			active := f.active.Load()
			if active < 1 {
				active = 1
			}
			share := int64(at) / active
			if share < 1 {
				share = 1
			}
			if mine > share {
				release()
				shed.Get(tenantKey(cc.Req.Caller)).Inc()
				return wire.Errorf(cc.Req,
					"load-shed: tenant %q over fair share (%d inflight, share %d of %d)",
					cc.Req.Caller, mine, share, at), nil
			}
		}
		resp, err := next(cc)
		release()
		return resp, err
	}
}

// fairTable tracks live per-tenant inflight.  Past metrics.FamilyMax
// distinct callers new ones share the "~other" counter: they compete
// for one share — fail-safe in the shedding direction under tenant-id
// churn.
type fairTable struct {
	tenants metrics.Family[atomic.Int64]
	active  atomic.Int64
}

// CoDel returns the CoDel queue-management interceptor, the classic
// controlled-delay algorithm applied to the transport-measured
// dispatch-slot wait (CallCtx.SlotWaitUs as the sojourn time): waits
// under target reset the controller; once waits stay above target for
// a full interval it enters a drop cycle, shedding at intervals that
// shrink with the inverse square root of the drop count until the wait
// dips back under target.  now is the clock (nanoseconds), injectable
// for deterministic tests; pass nil for the real clock.
func CoDel(target, interval time.Duration, reg *metrics.Registry, now func() int64) Interceptor {
	shed := reg.Counter("shed.codel")
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	c := &codel{target: target.Nanoseconds(), interval: interval.Nanoseconds(), now: now}
	return func(cc *CallCtx, next Handler) (*wire.Response, error) {
		sojourn := int64(cc.SlotWaitUs) * int64(time.Microsecond)
		if c.drop(sojourn) {
			shed.Inc()
			return wire.Errorf(cc.Req,
				"load-shed: queue delay %v over CoDel target %v",
				time.Duration(sojourn), time.Duration(c.target)), nil
		}
		return next(cc)
	}
}

// codel is the controller state.  The mutex is uncontended in the happy
// path's only branch that takes it — sojourn below target is a single
// lock/unlock with two stores — and the whole interceptor only matters
// when the server is already queueing.
type codel struct {
	mu         sync.Mutex
	target     int64 // ns
	interval   int64 // ns
	now        func() int64
	firstAbove int64 // when the above-target episode crosses into dropping; 0 = below
	dropNext   int64 // next scheduled drop while dropping
	count      int64 // drops this cycle (control-law divisor)
	dropping   bool
}

func (c *codel) drop(sojournNs int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sojournNs < c.target {
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	t := c.now()
	if c.firstAbove == 0 {
		// First above-target observation: arm the interval window.
		c.firstAbove = t + c.interval
		return false
	}
	if t < c.firstAbove {
		return false
	}
	if !c.dropping {
		c.dropping = true
		c.count = 1
		c.dropNext = t + c.controlLaw()
		return true
	}
	if t >= c.dropNext {
		c.count++
		c.dropNext += c.controlLaw()
		return true
	}
	return false
}

// controlLaw is CoDel's drop spacing: interval/sqrt(count).
func (c *codel) controlLaw() int64 {
	return int64(float64(c.interval) / math.Sqrt(float64(c.count)))
}
