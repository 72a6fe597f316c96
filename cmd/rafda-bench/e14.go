package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rafda"
)

// ----- E14: tracing overhead + chaos flight-recorder audit -----

// e14Source is the observability workload: echo() is the pure
// round-trip the overhead arm hammers (no writes, so the traced and
// untraced arms compare nothing but the tracing plane itself), and
// bump()/read() reuse the E12 non-idempotent counter semantics so the
// chaos audit can cross-check exactly-once while it audits spans.
const e14Source = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int echo(int x) { return x; }
    int bump(int x) {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + x; }
        n = n + acc;
        return n;
    }
    int read() { return n; }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// e14Config carries the -e14-* flag values.
type e14Config struct {
	rounds      int     // alternating overhead rounds per arm (0: audit only)
	calls       int     // echo calls per overhead round
	parallel    int     // concurrent caller goroutines
	maxOverhead float64 // tolerated traced-vs-untraced throughput loss
	seeds       string  // chaos audit fault-schedule seeds
	auditCalls  int     // acked bumps per audit seed
	dup         int     // per-mille duplicated frames
	drop        int     // per-mille swallowed frames
	kill        int     // per-mille kill-mid-flight
	traceSpans  int     // audit ring capacity per node
	pool        int
}

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
// the gate's key row: 1.0 when the traced arm's median throughput sits
// within MaxOverhead of the untraced arm's AND every chaos seed's span
// forest was complete and connected, else 0.0.
type E14Report struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`

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

// e14Faults is the audit arm's chaos profile (the E12 schedule: dial
// handshakes exempt, everything after fair game).
func e14Faults(cfg e14Config, seed uint64) rafda.NetProfile {
	p := rafda.NetLAN
	p.Faults = &rafda.NetFaults{
		Seed:            seed,
		DupPerMille:     cfg.dup,
		DropPerMille:    cfg.drop,
		KillPerMille:    cfg.kill,
		FirstSafeWrites: 4,
	}
	return p
}

// e14Pair builds one measured driver/server deployment for the
// overhead arm — a clean simulated LAN, tracing on or off on BOTH
// sides — with the counter placed remotely and one instance made.
func e14Pair(cfg e14Config, prefix string, noTrace bool) (driver *rafda.Node, ref *rafda.Ref, cleanup func(), err error) {
	prog, err := rafda.CompileString(e14Source)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		return nil, nil, nil, err
	}
	mk := func(name string) (*rafda.Node, error) {
		return tr.NewNode(rafda.NodeConfig{
			Name: prefix + name, Network: rafda.NetLAN,
			PoolSize: cfg.pool, Tracing: rafda.TracingConfig{Disable: noTrace},
		})
	}
	d, err := mk("driver")
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := mk("server")
	if err != nil {
		d.Close()
		return nil, nil, nil, err
	}
	cleanup = func() { d.Close(); s.Close() }
	if _, err = d.Serve("rrp", ""); err == nil {
		var ep string
		if ep, err = s.Serve("rrp", ""); err == nil {
			if err = d.PlaceClass("Counter", ep); err == nil {
				var made any
				if made, err = d.Call("Setup", "make"); err == nil {
					return d, made.(*rafda.Ref), cleanup, nil
				}
			}
		}
	}
	cleanup()
	return nil, nil, nil, err
}

// cpuNow reads the process's consumed CPU time (user+system).  Unlike
// wall clock, CPU time is immune to what the rest of the host is doing
// — on a contended runner it is the only stable base for a small-ratio
// comparison.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e14Echo runs `calls` remote echo round-trips over `parallel`
// goroutines and reports the elapsed wall time, process-CPU time and
// heap allocation count.
func e14Echo(driver *rafda.Node, ref *rafda.Ref, parallel, calls int) (wall, cpu time.Duration, allocs uint64, err error) {
	var next atomic.Int64
	errs := make(chan error, parallel)
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuNow()
	start := time.Now()
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(calls) {
				v, err := driver.CallOn(ref, "echo", 7)
				if err != nil {
					errs <- err
					return
				}
				if v.(int64) != 7 {
					errs <- fmt.Errorf("bad echo %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	cpu = cpuNow() - cpu0
	runtime.ReadMemStats(&ms1)
	select {
	case err := <-errs:
		return 0, 0, 0, err
	default:
	}
	return wall, cpu, ms1.Mallocs - ms0.Mallocs, nil
}

// median of a non-empty sample (mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// q25 is the lower quartile of a non-empty sample (the element a
// quarter of the way up the sorted order — for 5 rounds, the
// second-lowest).
func q25(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
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
func e14Overhead(cfg e14Config, report *E14Report) error {
	traced, tRef, tClean, err := e14Pair(cfg, "t-", false)
	if err != nil {
		return err
	}
	defer tClean()
	plain, pRef, pClean, err := e14Pair(cfg, "p-", true)
	if err != nil {
		return err
	}
	defer pClean()

	warm := cfg.calls / 10
	if warm < 50 {
		warm = 50
	}
	if _, _, _, err := e14Echo(traced, tRef, cfg.parallel, warm); err != nil {
		return err
	}
	if _, _, _, err := e14Echo(plain, pRef, cfg.parallel, warm); err != nil {
		return err
	}

	slice := cfg.calls / 16
	if slice < 200 {
		slice = 200
	}
	fmt.Printf("tracing overhead: %d echo calls/round in interleaved %d-call slices, p=%d, %d rounds\n\n",
		cfg.calls, slice, cfg.parallel, cfg.rounds)
	fmt.Printf("  %-6s %14s %14s %8s\n", "round", "traced c/s", "untraced c/s", "ratio")
	var wallQuads []float64 // one wall ratio per ABBA quad (two opposite-order pairs)
	var cpuRounds []float64 // one CPU ratio per round — the gated sample
	var tCPU, pCPU time.Duration
	var tAllocs, pAllocs uint64
	totalCalls := 0
	// Collector off while a slice is measured: GC runs only at the
	// forced points between slices, so no mark cycle's CPU lands inside
	// an arm's timing window.
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	for r := 0; r < cfg.rounds; r++ {
		var tTime, pTime time.Duration
		var tCPURound, pCPURound time.Duration
		var tEls, pEls []time.Duration // per-slice wall times, index = slice ordinal
		for done, s := 0, 0; done < cfg.calls; done, s = done+slice, s+1 {
			// Two collections, not one: a cycle's sweep work is lazy and
			// runs in background (or on the next allocating goroutine) —
			// inside the following slice's CPU window, since getrusage is
			// process-wide.  Starting a second cycle forces the first one's
			// sweep to complete synchronously, here, outside every window.
			runtime.GC()
			runtime.GC()
			n := slice
			if cfg.calls-done < n {
				n = cfg.calls - done
			}
			arms := []struct {
				d      *rafda.Node
				ref    *rafda.Ref
				wall   *time.Duration
				cpu    *time.Duration
				allocs *uint64
			}{
				{traced, tRef, &tTime, &tCPURound, &tAllocs},
				{plain, pRef, &pTime, &pCPURound, &pAllocs},
			}
			if s%2 == 1 {
				arms[0], arms[1] = arms[1], arms[0]
			}
			var el [2]time.Duration
			for i, a := range arms {
				wall, cpu, allocs, err := e14Echo(a.d, a.ref, cfg.parallel, n)
				if err != nil {
					return err
				}
				el[i] = wall
				*a.wall += wall
				*a.cpu += cpu
				*a.allocs += allocs
			}
			if s%2 == 1 {
				el[0], el[1] = el[1], el[0]
			}
			tEls, pEls = append(tEls, el[0]), append(pEls, el[1])
		}
		totalCalls += cfg.calls
		tCPU += tCPURound
		pCPU += pCPURound
		cpuRounds = append(cpuRounds, tCPURound.Seconds()/pCPURound.Seconds())
		// ABBA quads: adjacent slices run the arms in opposite order, so
		// summing a slice with its neighbour before taking the ratio
		// cancels any run-second advantage (warm timers, just-exited
		// goroutines) that a single pair's ratio would carry as bias.
		for q := 0; q+1 < len(tEls); q += 2 {
			wallQuads = append(wallQuads,
				(pEls[q]+pEls[q+1]).Seconds()/(tEls[q]+tEls[q+1]).Seconds())
		}
		tCps := float64(cfg.calls) / tTime.Seconds()
		pCps := float64(cfg.calls) / pTime.Seconds()
		report.TracedCallsPerSec = append(report.TracedCallsPerSec, tCps)
		report.PlainCallsPerSec = append(report.PlainCallsPerSec, pCps)
		fmt.Printf("  %-6d %14.0f %14.0f %8.3f\n", r+1, tCps, pCps, tCps/pCps)
	}
	report.TracedMedian = median(report.TracedCallsPerSec)
	report.PlainMedian = median(report.PlainCallsPerSec)
	report.WallOverhead = 1 - median(wallQuads)
	report.TracedCPUPerCall = float64(tCPU.Microseconds()) / float64(totalCalls)
	report.PlainCPUPerCall = float64(pCPU.Microseconds()) / float64(totalCalls)
	report.Overhead = q25(cpuRounds) - 1
	fmt.Printf("\n  wall: median of %d order-balanced slice-quad ratios %.3f (traced median %.0f, untraced median %.0f calls/s)\n",
		len(wallQuads), median(wallQuads), report.TracedMedian, report.PlainMedian)
	fmt.Printf("  cpu:  traced %.1fµs/call vs untraced %.1fµs/call; lower quartile of %d round ratios: overhead %.2f%% (bound %.0f%%)\n",
		report.TracedCPUPerCall, report.PlainCPUPerCall, len(cpuRounds),
		100*report.Overhead, 100*cfg.maxOverhead)
	fmt.Printf("  heap: traced %.1f vs untraced %.1f allocs/call\n",
		float64(tAllocs)/float64(totalCalls), float64(pAllocs)/float64(totalCalls))
	if report.Overhead > cfg.maxOverhead {
		return fmt.Errorf("tracing overhead %.2f%% CPU/call exceeds the %.0f%% bound (traced %.1fµs vs untraced %.1fµs per call)",
			100*report.Overhead, 100*cfg.maxOverhead, report.TracedCPUPerCall, report.PlainCPUPerCall)
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
		return nil, ring, fmt.Errorf("%s: ring overflowed (%d spans emitted into %d slots) — the orphan audit needs the whole history; raise -e14-trace-spans or lower -e14-audit-calls",
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
func e14Audit(cfg e14Config, seed uint64) (E14SeedAudit, error) {
	row := E14SeedAudit{Seed: seed}

	prog, err := rafda.CompileString(e14Source)
	if err != nil {
		return row, err
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		return row, err
	}
	mk := func(name string) (*rafda.Node, error) {
		return tr.NewNode(rafda.NodeConfig{
			Name: name, Network: e14Faults(cfg, seed),
			PoolSize: cfg.pool,
			Limits:   rafda.LimitsConfig{DedupWindow: 256},
			Tracing:  rafda.TracingConfig{Spans: cfg.traceSpans},
		})
	}
	driver, err := mk("driver")
	if err != nil {
		return row, err
	}
	defer driver.Close()
	server, err := mk("server")
	if err != nil {
		return row, err
	}
	defer server.Close()
	spare, err := mk("spare")
	if err != nil {
		return row, err
	}
	defer spare.Close()
	if _, err := driver.Serve("rrp", ""); err != nil {
		return row, err
	}
	epServer, err := server.Serve("rrp", "")
	if err != nil {
		return row, err
	}
	epSpare, err := spare.Serve("rrp", "")
	if err != nil {
		return row, err
	}

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
	// Audit parallelism caps at the E12 level: every caller on a shard
	// shares its multiplexed socket, so one killed frame fails all the
	// calls in flight on it — at p=64 on a single shard the per-attempt
	// blast radius outruns the tokened retry budget and a transient
	// kill can surface to the caller, which is a transport-sizing
	// artifact, not the tracing property under audit.
	par := cfg.parallel
	if par > 8 {
		par = 8
	}
	var next, acked atomic.Int64
	errs := make(chan error, par)
	var wg sync.WaitGroup
	var migErr error
	workDone := make(chan struct{}) // frees the trigger if callers die early
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		for acked.Load() < int64(cfg.auditCalls/2) {
			select {
			case <-workDone:
				return
			case <-time.After(time.Millisecond):
			}
		}
		migErr = driver.Migrate(ref, epSpare)
	}()
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(cfg.auditCalls) {
				if _, err := driver.CallOn(ref, "bump", 1); err != nil {
					errs <- err
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	close(workDone)
	<-migDone
	select {
	case err := <-errs:
		return row, fmt.Errorf("caller saw an unrecovered error: %w", err)
	default:
	}
	if migErr != nil {
		return row, fmt.Errorf("mid-run migration: %w", migErr)
	}
	row.AckedCalls = acked.Load()

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
	for _, n := range []*rafda.Node{driver, server, spare} {
		row.Suppressed += n.DedupStats().Suppressed()
	}
	if row.Suppressed == 0 {
		return row, fmt.Errorf("chaos never exercised the dedup plane (0 duplicates suppressed) — the audit proved nothing about retry traces")
	}

	// The quiesced rings, unioned, are the evidence.
	var spans []e14Span
	for _, n := range []*rafda.Node{driver, server, spare} {
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
// rings — zero orphans, no trace that lost the wire).  -e14-rounds 0
// skips the throughput arm for CI chaos jobs that only want the audit.
func e14(cfg e14Config, out string) error {
	report := E14Report{
		Experiment: "e14",
		Description: "tracing overhead + flight-recorder chaos audit: traced-vs-untraced echo medians within bound; " +
			"under dup/drop/kill chaos and a mid-run migration every acked call leaves a complete connected span tree",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Parallel:    cfg.parallel,
		Rounds:      cfg.rounds,
		Calls:       cfg.calls,
		MaxOverhead: cfg.maxOverhead,
	}

	if cfg.rounds > 0 {
		if err := e14Overhead(cfg, &report); err != nil {
			return err
		}
	} else {
		fmt.Println("overhead arm skipped (-e14-rounds 0): chaos trace audit only")
	}

	var seeds []uint64
	for _, s := range strings.Split(cfg.seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -e14-seeds entry %q: %w", s, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return fmt.Errorf("empty -e14-seeds")
	}

	fmt.Printf("\nflight-recorder chaos audit: %d calls per seed (dup %d‰, drop %d‰, kill %d‰), mid-run migration, ring %d\n\n",
		cfg.auditCalls, cfg.dup, cfg.drop, cfg.kill, cfg.traceSpans)
	fmt.Printf("  %-6s %8s %8s %8s %9s %8s %6s %6s %5s  %s\n",
		"seed", "acked", "spans", "roots", "crossnode", "orphans", "migr", "dedup", "fail", "verdict")
	for _, seed := range seeds {
		row, err := e14Audit(cfg, seed)
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
	fmt.Printf("\nall %d fault schedules left complete connected span trees; tracing stays on\n", len(seeds))

	return writeReport(out, "e14", report)
}
