package main

// E15 shed arm — proactive load shedding under sustained saturation.
//
// The main arm's disturbances are transient; this arm is steady-state
// hostile: one server node configured with the full shedding tier
// (strict-priority admission, per-tenant fair share, CoDel) is offered
// an open-loop Poisson stream at a multiple (>=3x) of its *measured*
// closed-loop capacity.  The tenant mix is adversarial by design — one
// flood tenant contributes ~3/4 of arrivals at priority 0 while two
// high-priority tenants (wire tag-5 class 1) and two background
// tenants make up the rest — so an unprotected node would queue
// without bound and every tenant's tail would blow through the SLO.
//
// The workload is slot-bound, not CPU-bound: hold(us) blocks inside
// the VM via sys.Clock.sleepMicros (the E8 blocking tier), occupying
// its object gate and its dispatch slot for a fixed service time.
// That pins the saturation at the admission plane the shedding
// interceptors govern — and keeps the harness itself (generator,
// client, transport loops) off the contended resource, which matters
// on small hosts: a CPU-bound workload at 3x on one core starves the
// measurement as much as the system, and every tenant's latency
// drowns in scheduler noise before any policy can act.
//
// Acceptance: shed_ok — 1.0 iff the priority and fair-share
// policies both refused work and every high-priority tenant kept its
// clean p99 under the SLO with at most a bounded shed fraction.  Latency is
// again measured from scheduled arrival time (coordinated-omission
// correction), and refusals are recognised by the wire "load-shed:"
// marker every shedding interceptor prefixes.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"rafda"
	"rafda/internal/transport"
	"rafda/internal/wire"
)

// E15ShedTenant is one tenant's outcome row in the shed arm.
type E15ShedTenant struct {
	Tenant   string  `json:"tenant"`
	Class    string  `json:"class"` // hp | flood | bg
	Priority uint32  `json:"priority"`
	Offered  int     `json:"offered"`
	Served   int     `json:"served"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	SloMet   bool    `json:"slo_met"` // gated for hp rows only
}

// E15ShedArm is the shed arm's section of BENCH_E15.json.
type E15ShedArm struct {
	CapacityPerSec float64 `json:"capacity_per_sec"` // measured closed-loop
	OfferedPerSec  float64 `json:"offered_per_sec"`
	Factor         float64 `json:"factor"`
	HoldUs         int     `json:"hold_us"` // per-call blocking service time
	MaxInflight    int     `json:"max_inflight"`
	PriorityAt     int     `json:"priority_at"`
	FairShareAt    int     `json:"fairshare_at"`
	CoDelTargetMs  float64 `json:"codel_target_ms"`

	Offered int `json:"offered"`
	Served  int `json:"served"`
	Shed    int `json:"shed"`
	Errors  int `json:"errors"`

	// The server's own counters, out of the same introspection snapshot
	// rafdac top renders.
	ShedPriority  uint64            `json:"shed_priority"`
	ShedFairShare uint64            `json:"shed_fairshare"`
	ShedCoDel     uint64            `json:"shed_codel"`
	ByPriority    map[string]uint64 `json:"shed_by_priority,omitempty"`
	ByTenant      map[string]uint64 `json:"shed_by_tenant,omitempty"`

	Tenants []E15ShedTenant `json:"tenant_rows"`
}

// e15ShedSpec is one tenant class in the adversarial mix.
type e15ShedSpec struct {
	name     string
	class    string
	priority uint32
	weight   float64
}

// The shedding knobs, chosen so the two admission policies trigger at
// staggered depths: the fair-share band opens at 40, below the
// priority threshold at 48, so tenant skew is punished first and the
// global backstop fires on the overshoot above it.  Priority class 1
// survives to depth priorityAt<<1 = 96, above the 80-slot cap, so
// high-priority traffic is never priority-shed.  The object population
// is sized so the ~48 admitted calls spread thin (~0.13 per object
// gate) and a high-priority call rarely queues behind more than one
// committed service time.
const (
	e15ShedMaxInflight = 80
	e15ShedPriorityAt  = 48
	e15ShedFairShareAt = 40
	e15ShedCoDelTarget = 5 * time.Millisecond
	e15ShedObjects     = 384
	e15ShedHoldUs      = 30_000 // 30ms blocking service per call
	e15ShedDuration    = 2500 * time.Millisecond
	e15ShedCalPar      = 36 // capacity probe width: below every shed threshold
	e15ShedHPMaxShed   = 0.25
	e15ShedFactor      = 3.0 // offered load over measured capacity
)

// e15Shed runs the shed arm and fills the report's shed rows.
func e15Shed(p profile, report *E15Report) error {
	specs := []e15ShedSpec{
		{"hp-00", "hp", 1, 0.03},
		{"hp-01", "hp", 1, 0.03},
		{"flood", "flood", 0, 0.76},
		{"bg-00", "bg", 0, 0.09},
		{"bg-01", "bg", 0, 0.09},
	}

	tr, err := transformed(e15Source, "rrp")
	if err != nil {
		return err
	}
	nodes, eps, closeAll, err := deploy(tr, "rrp", rafda.NodeConfig{
		Name:   "shed-srv",
		Limits: rafda.LimitsConfig{MaxInflight: e15ShedMaxInflight},
		Shed: rafda.ShedConfig{
			PriorityAt:  e15ShedPriorityAt,
			FairShareAt: e15ShedFairShareAt,
			CoDelTarget: e15ShedCoDelTarget,
		},
	})
	if err != nil {
		return err
	}
	defer closeAll()
	srv, ep := nodes[0], eps[0]
	client, err := transport.NewRRP(transport.Options{}).Dial(ep)
	if err != nil {
		return err
	}
	defer client.Close()
	entries, err := e15MakeObjects(client, ep, 0, e15ShedObjects)
	if err != nil {
		return err
	}
	holdCall := func(e *e15Entry, caller string, prio uint32, deadlineUs uint64) (*wire.Response, error) {
		return client.Call(&wire.Request{
			ID: 1, Op: wire.OpInvoke, GUID: e.guid, Method: "hold",
			Args:       []wire.Value{{Kind: wire.KInt, Int: e15ShedHoldUs}},
			Caller:     caller,
			Priority:   prio,
			DeadlineUs: deadlineUs,
		})
	}

	// Measure capacity with a closed loop: e15ShedCalPar callers on
	// distinct objects, below every shedding threshold, counting
	// completed calls.  The blocking service time makes the measure
	// machine-independent (~calPar/hold), but it is still measured, not
	// assumed — it includes the node's real dispatch and wire costs.
	d, err := drive(load{parallel: e15ShedCalPar, phase: 600 * time.Millisecond}, func(g int) error {
		resp, err := holdCall(entries[g%len(entries)], "calibrate", 0, 0)
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("shed calibration: %w", err)
	}
	capacity := d.perSec()
	offeredRate := capacity * e15ShedFactor

	arm := &E15ShedArm{
		CapacityPerSec: capacity,
		OfferedPerSec:  offeredRate,
		Factor:         e15ShedFactor,
		HoldUs:         e15ShedHoldUs,
		MaxInflight:    e15ShedMaxInflight,
		PriorityAt:     e15ShedPriorityAt,
		FairShareAt:    e15ShedFairShareAt,
		CoDelTargetMs:  float64(e15ShedCoDelTarget) / float64(time.Millisecond),
	}

	// The open-loop flood: same absolute-schedule Poisson generator as
	// the main arm, latency measured from scheduled arrival.
	type cell struct {
		mu     sync.Mutex
		latMs  []float64
		served int
		shed   int
		errs   int
	}
	cells := make([]cell, len(specs))
	cum := make([]float64, len(specs))
	acc := 0.0
	for i, s := range specs {
		acc += s.weight
		cum[i] = acc
	}
	pick := func(r float64) int {
		for i := range cum {
			if r < cum[i] {
				return i
			}
		}
		return len(specs) - 1
	}
	rng := rand.New(rand.NewSource(int64(report.Seed) + 42))
	deadlineUs := uint64(e15Deadline / time.Microsecond)
	var callWG sync.WaitGroup
	offered := make([]int, len(specs))
	start := time.Now()
	for next := time.Duration(0); ; {
		next += time.Duration(rng.ExpFloat64() / offeredRate * float64(time.Second))
		if next >= e15ShedDuration {
			break
		}
		t := pick(rng.Float64())
		obj := entries[rng.Intn(len(entries))]
		offered[t]++
		sched := start.Add(next)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		spec, c := specs[t], &cells[t]
		callWG.Add(1)
		go func() {
			defer callWG.Done()
			resp, err := holdCall(obj, spec.name, spec.priority, deadlineUs)
			ms := float64(time.Since(sched)) / float64(time.Millisecond)
			c.mu.Lock()
			switch {
			case err != nil:
				c.errs++
			case strings.HasPrefix(resp.Err, "load-shed:"):
				c.shed++
			case resp.Err != "":
				c.errs++
			default:
				c.served++
				c.latMs = append(c.latMs, ms)
			}
			c.mu.Unlock()
		}()
	}
	callWG.Wait()

	// Server-side truth: the shed rows of the introspection snapshot.  A
	// policy's total is the sum of its rows (per class, per tenant), and
	// a map stays nil when its policy has no rows.
	rows, err := metricRows(srv)
	if err != nil {
		return fmt.Errorf("shed-srv introspection: %w", err)
	}
	for _, r := range rows {
		var byKey *map[string]uint64
		switch r.Name {
		case "shed.priority":
			arm.ShedPriority += uint64(r.Value)
			byKey = &arm.ByPriority
		case "shed.fairshare":
			arm.ShedFairShare += uint64(r.Value)
			byKey = &arm.ByTenant
		case "shed.codel":
			arm.ShedCoDel += uint64(r.Value)
		}
		if byKey == nil {
			continue
		}
		if *byKey == nil {
			*byKey = make(map[string]uint64)
		}
		(*byKey)[r.Key] = uint64(r.Value)
	}

	sloBarMs := float64(p.sloP99) / float64(time.Millisecond)
	hpOK := true
	for i, s := range specs {
		c := &cells[i]
		sort.Float64s(c.latMs)
		row := E15ShedTenant{
			Tenant: s.name, Class: s.class, Priority: s.priority,
			Offered: offered[i], Served: c.served, Shed: c.shed, Errors: c.errs,
			P50Ms: pctile(c.latMs, 0.50), P99Ms: pctile(c.latMs, 0.99),
		}
		if n := len(c.latMs); n > 0 {
			row.MaxMs = c.latMs[n-1]
		}
		if s.class == "hp" {
			shedFrac := 0.0
			if row.Offered > 0 {
				shedFrac = float64(row.Shed+row.Errors) / float64(row.Offered)
			}
			row.SloMet = row.Served > 0 && row.P99Ms <= sloBarMs && shedFrac <= e15ShedHPMaxShed
			if !row.SloMet {
				hpOK = false
			}
		}
		arm.Offered += row.Offered
		arm.Served += row.Served
		arm.Shed += row.Shed
		arm.Errors += row.Errors
		arm.Tenants = append(arm.Tenants, row)
	}

	report.ShedArm = arm
	if hpOK && arm.ShedPriority > 0 && arm.ShedFairShare > 0 {
		report.ShedOK = 1.0
	}

	fmt.Printf("\nshed arm: %.1fx saturation (offered %.0f vs measured capacity %.0f calls/s), "+
		"%dms blocking service/call, %d arrivals over %v\n",
		e15ShedFactor, offeredRate, capacity, e15ShedHoldUs/1000, arm.Offered, e15ShedDuration)
	fmt.Printf("  knobs: max-inflight %d, priority-at %d, fairshare-at %d, codel %v\n\n",
		e15ShedMaxInflight, e15ShedPriorityAt, e15ShedFairShareAt, e15ShedCoDelTarget)
	fmt.Printf("  %-8s %-6s %3s %8s %8s %8s %7s %9s %9s  %s\n",
		"tenant", "class", "pri", "offered", "served", "shed", "errors", "p50", "p99", "slo")
	for _, t := range arm.Tenants {
		verdict := "-"
		if t.Class == "hp" {
			verdict = "met"
			if !t.SloMet {
				verdict = "MISSED"
			}
		}
		fmt.Printf("  %-8s %-6s %3d %8d %8d %8d %7d %7.2fms %7.2fms  %s\n",
			t.Tenant, t.Class, t.Priority, t.Offered, t.Served, t.Shed, t.Errors,
			t.P50Ms, t.P99Ms, verdict)
	}
	fmt.Printf("\n  server shed counters: priority %d  fair-share %d  codel %d\n",
		arm.ShedPriority, arm.ShedFairShare, arm.ShedCoDel)
	fmt.Printf("  hp SLO (p99 <= %.0fms, shed frac <= %.0f%%) met: %v;  shed_ok = %.0f\n",
		sloBarMs, 100*e15ShedHPMaxShed, hpOK, report.ShedOK)
	return nil
}
