package main

// E15 — open-loop latency-SLO macro-workload.
//
// Every earlier tier is a closed-loop microbenchmark: callers wait for
// each response before sending the next request, so the offered load
// self-throttles exactly when the system slows down and the tail
// disappears from the record.  E15 is the open-loop complement: a
// Poisson arrival process offers calls at a configured rate whether or
// not earlier calls have finished, popularity over thousands of objects
// follows a Zipf law (a few hot objects serialise on their gates while
// a long tail stays cold), and every arrival carries one of tens of
// tenant identities plus a wire deadline.  Mid-run the harness injects
// the two disturbances a production deployment actually sees — a node
// dies (its shard of objects is lost until re-created elsewhere) and
// the surviving link degrades (client-side netsim latency/jitter) — and
// the record reports exact per-tenant p50/p99/p999 for the clean phases
// against a configured SLO.
//
// Latency is measured from each call's *scheduled* arrival time, not
// its send time, so scheduler lateness under overload counts against
// the system rather than being silently omitted (the open-loop
// correction for coordinated omission).
//
// Acceptance: slo_ok — 1.0 iff every tenant's clean-phase p99 met the
// SLO and the clean-phase error rate stayed under the bound; the run
// fails otherwise.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafda"
	"rafda/internal/metrics"
	"rafda/internal/netsim"
	"rafda/internal/transport"
	"rafda/internal/wire"
)

const e15Source = `
class Item {
    private int v;
    Item(int v0) { this.v = v0; }
    int get() { return v; }
    int put(int x) { this.v = v + x; return v; }
    int hold(int us) {
        sys.Clock.sleepMicros(us);
        v = v + 1;
        return v;
    }
}
class Mk {
    static Item make(int v0) { return new Item(v0); }
}
class Main { static void main() {} }`

// The E15 workload shape that both profiles share.
const (
	e15Tenants  = 20                     // tenant identities cycling through arrivals
	e15ZipfS    = 1.1                    // Zipf skew of object popularity (>1)
	e15Deadline = 250 * time.Millisecond // per-call wire deadline budget
	e15MaxErr   = 0.01                   // tolerated clean-phase error fraction
)

// e15Phases names the run's three windows in timeline order.
var e15Phases = [3]string{"warm", "churn", "recovery"}

// E15Phase is one aggregate timeline-window row.
type E15Phase struct {
	Phase           string  `json:"phase"`
	Calls           int     `json:"calls"`
	Errors          int     `json:"errors"`
	Unavailable     int     `json:"unavailable"` // arrivals for a dead shard, never sent
	DeadlineRejects int     `json:"deadline_rejects"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	P999Ms          float64 `json:"p999_ms"`
	MaxMs           float64 `json:"max_ms"`
}

// E15Tenant is one per-tenant clean-phase (warm+recovery) percentile
// row — the rows the SLO verdict is computed over.
type E15Tenant struct {
	Tenant string  `json:"tenant"`
	Calls  int     `json:"calls"`
	Errors int     `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	SloMet bool    `json:"slo_met"`
}

// E15Overload is one server node's overload counters after the run.
type E15Overload struct {
	Node              string `json:"node"`
	AdmissionRejects  int64  `json:"admission_rejects"`
	DeadlineExpiries  int64  `json:"deadline_expiries"`
	OutboxStalls      int64  `json:"outbox_stalls"`
	Inflight          int64  `json:"inflight"`
	InflightHighWater int64  `json:"inflight_high_water"`
}

// E15Report is the top-level BENCH_E15.json document.
type E15Report struct {
	header

	RatePerSec   float64 `json:"rate_per_sec"`
	Objects      int     `json:"objects"`
	ChurnObjects int     `json:"churn_objects"` // shard lost and re-created mid-run
	Tenants      int     `json:"tenants"`
	ZipfS        float64 `json:"zipf_s"`
	Seed         uint64  `json:"seed"`
	DeadlineMs   float64 `json:"deadline_ms"`
	SloP99Ms     float64 `json:"slo_p99_ms"`
	MaxErrRate   float64 `json:"max_clean_err_rate"`

	Phases     []E15Phase  `json:"phases"`
	TenantRows []E15Tenant `json:"tenant_rows"`

	WorstTenantP99Ms float64       `json:"worst_tenant_p99_ms"`
	CleanErrorRate   float64       `json:"clean_error_rate"`
	RehomeMs         float64       `json:"rehome_ms"` // churn shard dark time: node death to last object re-created
	Overload         []E15Overload `json:"server_overload"`

	SloOK float64 `json:"slo_ok"`

	// The shed arm (e15shed.go): sustained >=3x saturation against the
	// proactive shedding tier.  Nil when the arm was not run.
	ShedArm *E15ShedArm `json:"shed_arm,omitempty"`
	ShedOK  float64     `json:"shed_ok"`
}

// e15Entry is one live object's current address; the pointer in the
// object table is swapped atomically when the churn shard is re-homed.
type e15Entry struct {
	ep   string
	guid string
}

// e15Bucket accumulates one (phase, tenant) cell's outcomes.
type e15Bucket struct {
	mu              sync.Mutex
	latMs           []float64
	errors          int
	unavailable     int
	deadlineRejects int
}

func (b *e15Bucket) ok(ms float64) {
	b.mu.Lock()
	b.latMs = append(b.latMs, ms)
	b.mu.Unlock()
}

func (b *e15Bucket) fail(resp string, sent bool) {
	b.mu.Lock()
	b.errors++
	if !sent {
		b.unavailable++
	}
	if strings.Contains(resp, "deadline expired") {
		b.deadlineRejects++
	}
	b.mu.Unlock()
}

// e15MakeObjects creates n objects through the class factory over the
// raw wire and returns their table entries.
func e15MakeObjects(client transport.Client, ep string, base, n int) ([]*e15Entry, error) {
	entries := make([]*e15Entry, 0, n)
	for i := 0; i < n; i++ {
		resp, err := client.Call(&wire.Request{
			ID: 1, Op: wire.OpInvokeClass, Class: "Mk", Method: "make",
			Args: []wire.Value{{Kind: wire.KInt, Int: int64(base + i)}},
		})
		if err != nil {
			return nil, fmt.Errorf("make object %d at %s: %w", base+i, ep, err)
		}
		if resp.Err != "" || resp.Result.Ref == nil {
			return nil, fmt.Errorf("make object %d at %s: %+v", base+i, ep, resp)
		}
		entries = append(entries, &e15Entry{ep: ep, guid: resp.Result.Ref.GUID})
	}
	return entries, nil
}

// e15 runs the experiment's two arms.  The main arm is the churn/SLO
// timeline described atop this file; the shed arm (e15shed.go)
// saturates a shedding-configured node at a multiple of its measured
// capacity and checks the proactive policies protect the high-priority
// tenants.
func e15(p profile, out string) error {
	report := E15Report{
		header:     newHeader("e15"),
		RatePerSec: p.rate,
		Objects:    p.objects,
		Tenants:    e15Tenants,
		ZipfS:      e15ZipfS,
		Seed:       p.seeds[0],
		DeadlineMs: float64(e15Deadline) / float64(time.Millisecond),
		SloP99Ms:   float64(p.sloP99) / float64(time.Millisecond),
		MaxErrRate: e15MaxErr,
	}
	if err := e15Main(p, &report); err != nil {
		return err
	}
	if err := e15Shed(p, &report); err != nil {
		return err
	}
	if err := writeReport(out, "e15", report); err != nil {
		return err
	}
	if report.SloOK != 1.0 {
		return fmt.Errorf("SLO missed: worst tenant p99 %.2fms (bar %.0fms), clean error rate %.4f (bound %.4f)",
			report.WorstTenantP99Ms, report.SloP99Ms, report.CleanErrorRate, e15MaxErr)
	}
	if report.ShedOK != 1.0 {
		return fmt.Errorf("shed arm failed: shed_ok = 0 (see the shed-arm table above)")
	}
	return nil
}

// e15Main runs the churn/SLO arm and fills the report's main-arm rows.
func e15Main(p profile, report *E15Report) error {
	tr, err := transformed(e15Source, "rrp")
	if err != nil {
		return err
	}
	nodes, eps, closeAll, err := deploy(tr, "rrp", rafda.NodeConfig{Name: "srv-a"}, rafda.NodeConfig{Name: "srv-b"})
	if err != nil {
		return err
	}
	defer closeAll()
	nodeA, nodeB, epA, epB := nodes[0], nodes[1], eps[0], eps[1]

	// Two client planes to each server: a clean loopback transport and a
	// degraded one (client-side netsim latency+jitter) that the churn
	// window swings traffic onto — the "link degradation mid-run" leg.
	clean := transport.NewRRP(transport.Options{})
	degradedProfile := netsim.Profile{
		Latency: 5 * time.Millisecond, Jitter: time.Millisecond,
		BandwidthBps: 1e8, Seed: report.Seed | 1,
	}
	degraded := transport.NewRRP(transport.Options{Profile: degradedProfile})
	cleanA, err := clean.Dial(epA)
	if err != nil {
		return err
	}
	defer cleanA.Close()
	cleanB, err := clean.Dial(epB)
	if err != nil {
		return err
	}
	defer cleanB.Close()
	degA, err := degraded.Dial(epA)
	if err != nil {
		return err
	}
	defer degA.Close()
	clientFor := func(ep string, useDegraded bool) transport.Client {
		if ep == epB {
			return cleanB // the B shard dies when degradation starts
		}
		if useDegraded {
			return degA
		}
		return cleanA
	}

	// Object table: ~90% of objects on A, every 10th on B (the churn
	// shard lost mid-run).  Entries swap atomically when re-homed.
	objs := make([]atomic.Pointer[e15Entry], p.objects)
	var aIdx, bIdx []int
	for i := 0; i < p.objects; i++ {
		if i%10 == 9 {
			bIdx = append(bIdx, i)
		} else {
			aIdx = append(aIdx, i)
		}
	}
	report.ChurnObjects = len(bIdx)
	aEntries, err := e15MakeObjects(cleanA, epA, 0, len(aIdx))
	if err != nil {
		return err
	}
	for k, i := range aIdx {
		objs[i].Store(aEntries[k])
	}
	bEntries, err := e15MakeObjects(cleanB, epB, len(aIdx), len(bIdx))
	if err != nil {
		return err
	}
	for k, i := range bIdx {
		objs[i].Store(bEntries[k])
	}

	// (phase, tenant) outcome cells.
	buckets := make([][]e15Bucket, len(e15Phases))
	for ph := range buckets {
		buckets[ph] = make([]e15Bucket, e15Tenants)
	}
	total := 2*p.phase + p.churn
	churnAt, recoverAt := p.phase, p.phase+p.churn
	phaseOf := func(off time.Duration) int {
		switch {
		case off < churnAt:
			return 0
		case off < recoverAt:
			return 1
		default:
			return 2
		}
	}

	// The disturbance timeline: at churnAt node B dies (its shard goes
	// unavailable until re-created on A) and the link to A degrades; at
	// recoverAt the link heals.  Re-homing runs concurrently with the
	// arrival stream, as a real failover would.
	var useDegraded atomic.Bool
	var rehomeNs atomic.Int64
	var timelineWG sync.WaitGroup
	deadlineUs := uint64(e15Deadline / time.Microsecond)
	start := time.Now()
	timelineWG.Add(1)
	go func() {
		defer timelineWG.Done()
		time.Sleep(time.Until(start.Add(churnAt)))
		useDegraded.Store(true)
		died := time.Now()
		for _, i := range bIdx {
			objs[i].Store(nil) // shard dark until re-homed
		}
		nodeB.Close()
		for k, i := range bIdx {
			re, err := e15MakeObjects(cleanA, epA, p.objects+k, 1)
			if err != nil {
				return // arrivals keep counting the shard unavailable
			}
			objs[i].Store(re[0])
		}
		rehomeNs.Store(int64(time.Since(died)))
	}()
	timelineWG.Add(1)
	go func() {
		defer timelineWG.Done()
		time.Sleep(time.Until(start.Add(recoverAt)))
		useDegraded.Store(false)
	}()

	// The open-loop generator: absolute Poisson schedule, one goroutine
	// per arrival, never waiting for completions.  A late scheduler
	// fires immediately and the lateness lands in the measured latency.
	rng := rand.New(rand.NewSource(int64(report.Seed)))
	zipf := rand.NewZipf(rng, e15ZipfS, 1, uint64(p.objects-1))
	var callWG sync.WaitGroup
	offered := 0
	for next := time.Duration(0); ; {
		next += time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second))
		if next >= total {
			break
		}
		obj := int(zipf.Uint64())
		tenant := offered % e15Tenants
		write := offered%10 == 0
		offered++
		sched := start.Add(next)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		bucket := &buckets[phaseOf(next)][tenant]
		callWG.Add(1)
		go func() {
			defer callWG.Done()
			e := objs[obj].Load()
			if e == nil {
				bucket.fail("shard unavailable", false)
				return
			}
			req := &wire.Request{
				ID: 1, Op: wire.OpInvoke, GUID: e.guid, Method: "get",
				Caller:     fmt.Sprintf("tenant-%02d", tenant),
				DeadlineUs: deadlineUs,
			}
			if write {
				req.Method = "put"
				req.Args = []wire.Value{{Kind: wire.KInt, Int: 1}}
			}
			resp, err := clientFor(e.ep, useDegraded.Load()).Call(req)
			ms := float64(time.Since(sched)) / float64(time.Millisecond)
			switch {
			case err != nil:
				bucket.fail(err.Error(), true)
			case resp.Err != "":
				bucket.fail(resp.Err, true)
			default:
				bucket.ok(ms)
			}
		}()
	}
	callWG.Wait()
	timelineWG.Wait()

	// Aggregate: per-phase rows over all tenants, per-tenant rows over
	// the clean phases (warm + recovery) for the SLO verdict.
	for ph, name := range e15Phases {
		var all []float64
		row := E15Phase{Phase: name}
		for t := range buckets[ph] {
			b := &buckets[ph][t]
			all = append(all, b.latMs...)
			row.Errors += b.errors
			row.Unavailable += b.unavailable
			row.DeadlineRejects += b.deadlineRejects
		}
		sort.Float64s(all)
		row.Calls = len(all) + row.Errors
		row.P50Ms, row.P99Ms, row.P999Ms = pctile(all, 0.50), pctile(all, 0.99), pctile(all, 0.999)
		if n := len(all); n > 0 {
			row.MaxMs = all[n-1]
		}
		report.Phases = append(report.Phases, row)
	}
	sloOK := true
	var cleanCalls, cleanErrs int
	for t := 0; t < e15Tenants; t++ {
		var lat []float64
		row := E15Tenant{Tenant: fmt.Sprintf("tenant-%02d", t)}
		for _, ph := range []int{0, 2} {
			b := &buckets[ph][t]
			lat = append(lat, b.latMs...)
			row.Errors += b.errors
		}
		sort.Float64s(lat)
		row.Calls = len(lat) + row.Errors
		row.P50Ms, row.P99Ms, row.P999Ms = pctile(lat, 0.50), pctile(lat, 0.99), pctile(lat, 0.999)
		if n := len(lat); n > 0 {
			row.MaxMs = lat[n-1]
		}
		row.SloMet = len(lat) > 0 && row.P99Ms <= report.SloP99Ms
		if !row.SloMet {
			sloOK = false
		}
		if row.P99Ms > report.WorstTenantP99Ms {
			report.WorstTenantP99Ms = row.P99Ms
		}
		cleanCalls += row.Calls
		cleanErrs += row.Errors
		report.TenantRows = append(report.TenantRows, row)
	}
	if cleanCalls > 0 {
		report.CleanErrorRate = float64(cleanErrs) / float64(cleanCalls)
	}
	if report.CleanErrorRate > e15MaxErr {
		sloOK = false
	}
	if sloOK {
		report.SloOK = 1.0
	}
	report.RehomeMs = float64(rehomeNs.Load()) / float64(time.Millisecond)

	// The servers' own view of the run: overload counters out of the
	// same introspection snapshot rafdac top and /debug/rafda render.
	for _, sv := range []struct {
		name string
		n    *rafda.Node
	}{{"srv-a", nodeA}, {"srv-b", nodeB}} {
		rows, err := metricRows(sv.n)
		if err != nil {
			return fmt.Errorf("%s introspection: %w", sv.name, err)
		}
		ov := E15Overload{Node: sv.name}
		for _, r := range rows {
			switch r.Name {
			case "overload.admission_rejects":
				ov.AdmissionRejects = r.Value
			case "overload.deadline_expiries":
				ov.DeadlineExpiries = r.Value
			case "overload.outbox_stalls":
				ov.OutboxStalls = r.Value
			case "overload.inflight":
				ov.Inflight, ov.InflightHighWater = r.Value, r.High
			}
		}
		report.Overload = append(report.Overload, ov)
	}

	fmt.Printf("open-loop %.0f calls/s, %d objects (Zipf s=%.2f, %d on the churn shard), %d tenants, "+
		"deadline %v, %d arrivals offered\n\n",
		p.rate, p.objects, e15ZipfS, report.ChurnObjects, e15Tenants, e15Deadline, offered)
	fmt.Printf("  %-9s %8s %7s %7s %9s %9s %9s %9s\n",
		"phase", "calls", "errors", "unavail", "p50", "p99", "p999", "max")
	for _, ph := range report.Phases {
		fmt.Printf("  %-9s %8d %7d %7d %7.2fms %7.2fms %7.2fms %7.2fms\n",
			ph.Phase, ph.Calls, ph.Errors, ph.Unavailable, ph.P50Ms, ph.P99Ms, ph.P999Ms, ph.MaxMs)
	}
	fmt.Printf("\n  clean-phase per-tenant percentiles vs SLO p99 <= %.0fms:\n", report.SloP99Ms)
	fmt.Printf("  %-10s %7s %7s %9s %9s %9s  %s\n", "tenant", "calls", "errors", "p50", "p99", "p999", "slo")
	for _, t := range report.TenantRows {
		verdict := "met"
		if !t.SloMet {
			verdict = "MISSED"
		}
		fmt.Printf("  %-10s %7d %7d %7.2fms %7.2fms %7.2fms  %s\n",
			t.Tenant, t.Calls, t.Errors, t.P50Ms, t.P99Ms, t.P999Ms, verdict)
	}
	for _, ov := range report.Overload {
		fmt.Printf("\n  %s overload: rejects %d  expiries %d  outbox stalls %d  inflight hw %d",
			ov.Node, ov.AdmissionRejects, ov.DeadlineExpiries, ov.OutboxStalls, ov.InflightHighWater)
	}
	fmt.Printf("\n\n  churn shard (%d objects) re-homed onto srv-a in %.1fms\n",
		report.ChurnObjects, report.RehomeMs)
	fmt.Printf("  worst tenant p99 %.2fms, clean error rate %.4f (bound %.4f): slo_ok = %.0f\n",
		report.WorstTenantP99Ms, report.CleanErrorRate, e15MaxErr, report.SloOK)
	return nil
}

// metricRows reads a node's metrics registry out of the same
// introspection snapshot rafdac top and /debug/rafda render.
func metricRows(n *rafda.Node) ([]metrics.Row, error) {
	out, err := n.IntrospectJSON("metrics", "")
	if err != nil {
		return nil, err
	}
	var in struct {
		Metrics []metrics.Row `json:"metrics"`
	}
	err = json.Unmarshal([]byte(out), &in)
	return in.Metrics, err
}
