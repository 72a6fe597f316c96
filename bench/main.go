// Command bench is the repository's benchmark: five closed-loop call-path
// workloads measured end to end, and a traced pass that times each layer
// from outside.  See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	bench                                   every workload, then every traced pass
//	bench -workload rpc.small -trace 0      one end-to-end run, result as the last line
//	bench -workload rpc.small -trace 1      one traced pass, result as the last line
//	bench -compare a.json b.json            verdict per workload x end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricDef is one named metric: BENCHMARK.json lists the same names,
// units, directions and bounds, and the smoke test holds the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // share of the parent's median; 0 for layer metrics
	moves              string  // layer metrics: what it should move, on which workload
}

var endToEnd = []metricDef{
	{name: "calls_per_s", unit: "calls/s", better: "higher", bound: 0.20},
	{name: "call_p50_us", unit: "us", better: "lower", bound: 0.20},
	{name: "cpu_us_per_call", unit: "us", better: "lower", bound: 0.20},
	{name: "allocs_per_call", unit: "allocs", better: "lower", bound: 0.02},
	{name: "ok_ratio", unit: "ratio", better: "higher", bound: 0.0001},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	setupAll  = "setup_s on every workload"
	setupApp  = "setup_s on app.local"
	cpuSmall  = "cpu_us_per_call on rpc.small"
	nodeMoves = "call_p50_us, cpu_us_per_call, allocs_per_call on rpc.small; calls_per_s on redistribute"
	wireMoves = "calls_per_s, cpu_us_per_call on rpc.bulk; small share on rpc.small; none on app.local"
	vmMoves   = "calls_per_s, cpu_us_per_call on app.local; at most 5% of call_p50_us on rpc.*"
	tpMoves   = "call_p50_us on rpc.small; calls_per_s on rpc.lan and rpc.bulk"
	printed   = "printed, never gated"
)

var perLayer = []metricDef{
	{name: "minijava.compile_ms", unit: "ms", better: "lower", moves: setupAll},
	{name: "verifier.verify_ms", unit: "ms", better: "lower", moves: setupApp},
	{name: "transform.transform_ms", unit: "ms", better: "lower", moves: setupApp},
	{name: "transform.classes_per_s", unit: "classes/s", better: "higher", moves: setupApp},
	{name: "transform.generated_classes", unit: "count", better: "lower", moves: setupApp},
	{name: "vm.orig_ns_per_op", unit: "ns", better: "lower", moves: vmMoves},
	{name: "vm.local_ns_per_op", unit: "ns", better: "lower", moves: vmMoves},
	{name: "vm.transform_overhead_ratio", unit: "ratio", better: "lower", moves: vmMoves},
	{name: "vm.allocs_per_op", unit: "allocs", better: "lower", moves: "allocs_per_call on app.local"},
	{name: "node.local_ns_per_op", unit: "ns", better: "lower", moves: "calls_per_s on app.local"},
	{name: "node.inproc_ns_per_op", unit: "ns", better: "lower", moves: nodeMoves},
	{name: "node.allocs_per_op", unit: "allocs", better: "lower", moves: nodeMoves},
	{name: "node.inproc_retired_refusals", unit: "count", better: "lower", moves: "known finding: fresh calls refused under concurrency over inproc; none on rrp workloads"},
	{name: "node.inproc_concurrent_calls", unit: "count", better: "higher", moves: "denominator of node.inproc_retired_refusals"},
	{name: "node.migrate_p50_us", unit: "us", better: "lower", moves: "calls_per_s on redistribute"},
	{name: "node.forward_hops", unit: "hops/migration", better: "lower", moves: "call_p50_us on redistribute"},
	{name: "wire.codec_ns_per_call", unit: "ns", better: "lower", moves: wireMoves},
	{name: "wire.allocs_per_call", unit: "allocs", better: "lower", moves: "allocs_per_call on rpc.small and rpc.bulk"},
	{name: "wire.req_bytes", unit: "B", better: "lower", moves: wireMoves},
	{name: "wire.resp_bytes", unit: "B", better: "lower", moves: wireMoves},
	{name: "dedup.ns_per_call", unit: "ns", better: "lower", moves: cpuSmall + "; ok_ratio on redistribute"},
	{name: "dedup.allocs_per_call", unit: "allocs", better: "lower", moves: "allocs_per_call on rpc.small"},
	{name: "intercept.ns_per_dispatch", unit: "ns", better: "lower", moves: cpuSmall},
	{name: "intercept.allocs_per_dispatch", unit: "allocs", better: "lower", moves: "expected 0"},
	{name: "intercept.ns_per_dispatch_bare", unit: "ns", better: "lower", moves: cpuSmall},
	{name: "intercept.allocs_per_dispatch_bare", unit: "allocs", better: "lower", moves: "expected 0"},
	{name: "trace.ns_per_span", unit: "ns", better: "lower", moves: cpuSmall},
	{name: "trace.allocs_per_span", unit: "allocs", better: "lower", moves: "expected 0 (amortised block allocation)"},
	{name: "transport.rtt_p50_ns", unit: "ns", better: "lower", moves: tpMoves},
	{name: "transport.allocs_per_call", unit: "allocs", better: "lower", moves: "allocs_per_call on rpc.small"},
	{name: "transport.calls_per_s_inflight8", unit: "calls/s", better: "higher", moves: tpMoves},
	{name: "netsim.added_rtt_us", unit: "us", better: "lower", moves: "floor of call_p50_us on rpc.lan"},
	{name: "ledger.e2e_serial_us", unit: "us", better: "lower", moves: printed},
	{name: "ledger.sum_us", unit: "us", better: "lower", moves: printed},
	{name: "ledger.residual_pct", unit: "%", better: "lower", moves: printed},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower", moves: printed},
	{name: "harness.spans_dropped", unit: "count", better: "lower", moves: printed},
}

// contractLine is the last line of a -workload run.
type contractLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]contractStat `json:"metrics"`
}

type contractStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set is what a full run writes with -json and -compare reads.
type set struct {
	Machine string       `json:"machine"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"` // every run made, disturbed ones included
	Layers  []layerSet   `json:"layers,omitempty"`
}

type layerSet struct {
	Workload string          `json:"workload"`
	Metrics  map[string]stat `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print the result as the last line")
		seed    = flag.Uint64("seed", 1, "seeds operands, payloads, the corpus and the migration order")
		seconds = flag.Float64("seconds", 10, "measured seconds per run (warm-up and set-up come on top)")
		traced  = flag.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced per-layer pass")
		jsonOut = flag.String("json", "", "also write the results to this file, the input of -compare")
		compare = flag.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	// Two Ps: the sandbox has two cores, and every record before this one
	// came from one.
	runtime.GOMAXPROCS(2)
	// The programs under test keep almost nothing alive, so the
	// collector's heap goal would be whatever garbage set-up left behind:
	// app.local ran at 160 or at 300 µs a call, at 30 or at 500
	// collections a second, by deployment.  A pointer-free ballast pins
	// the goal near 128 MiB, where a program with a real live heap runs.
	gcBallast = make([]byte, 64<<20)
	out := &set{Machine: machine(), Seconds: *seconds}
	fmt.Println(out.Machine)
	fmt.Println("all nodes run in this process and talk over TCP on the host's loopback interface, not a real link")

	list := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		list = []workload{*w}
	}
	line := contractLine{Correct: true, Metrics: map[string]contractStat{}}
	if *name == "" || *traced == 0 {
		for i := range list {
			runs, err := list[i].runSteady(defaultOpts(*seed, *seconds))
			if err != nil {
				fatal(err)
			}
			for _, r := range runs {
				printRun(&list[i], r)
			}
			out.Runs = append(out.Runs, runs...)
			// The result line has to carry one figure per metric.  Of two
			// disturbed runs it carries the steadier one's, whole.
			best := runs[len(runs)-1]
			if best.Status == "unresolved" && runs[0].Metrics["calls_per_s"].iqr() < best.Metrics["calls_per_s"].iqr() {
				best = runs[0]
			}
			line.Attempted, line.Failed = best.Attempted, best.Failed
			for _, m := range endToEnd {
				line.Metrics[m.name] = contractStat{best.Metrics[m.name].Value, m.unit}
			}
		}
	}
	if *name == "" || *traced == 1 {
		line.Metrics = map[string]contractStat{}
		for i := range list {
			p, err := list[i].layerPass(*seed, *seconds)
			if err != nil {
				fatal(err)
			}
			path := filepath.Join("bench", "out", "trace-"+list[i].name+".jsonl")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fatal(err)
			}
			if err := p.sp.write(path); err != nil {
				fatal(err)
			}
			printLayers(p, path)
			out.Layers = append(out.Layers, layerSet{list[i].name, p.metrics})
			line.Attempted, line.Failed = p.attempted, p.failed
			for _, m := range perLayer {
				line.Metrics[m.name] = contractStat{p.metrics[m.name].Value, m.unit}
			}
		}
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *name != "" {
		line.Correct = line.Failed == 0
		for _, m := range line.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fatal(fmt.Errorf("a metric is not finite: %+v", line.Metrics))
			}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}

var gcBallast []byte

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func machine() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: printed empty
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=2 %s %s/%s kernel %s",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, strings.TrimSpace(string(kernel)))
}

func printRun(w *workload, r *runResult) {
	conns := "no transport"
	if w.servers > 0 {
		conns = fmt.Sprintf("%d server(s), PoolSize %d", w.servers, w.pool)
		if w.net.Latency > 0 {
			conns += ", simulated LAN"
		}
	}
	fmt.Printf("\n== %s  [%s]  closed loop, %d callers, %s, seed %d\n   %s\n", r.Workload, r.Status, w.callers, conns, r.Seed, w.why)
	fmt.Printf("   %-18s %14s %-8s %-7s %-7s %s\n", "metric", "median", "unit", "better", "bound", "slice_spread: min .. max over rounds (quartiles apart)")
	for _, m := range endToEnd {
		s := r.Metrics[m.name]
		fmt.Printf("   %-18s %14.4f %-8s %-7s %-7s %.4f .. %.4f (%.1f%%)\n", m.name, s.Value, m.unit, m.better, fmt.Sprintf("%g%%", m.bound*100), s.Min, s.Max, s.iqr()*100)
	}
	fmt.Printf("   not gated, %d latency samples:", r.Samples)
	for _, k := range slices.Sorted(maps.Keys(r.Tail)) {
		fmt.Printf(" %s=%.2f%s", k, r.Tail[k].Value, r.Tail[k].Unit)
	}
	fmt.Printf("\n   attempted %d, failed %d (fail_ratio %.2e) by class %v\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Fails)
	if r.FirstErr != "" {
		fmt.Printf("   first error: %s\n", r.FirstErr)
	}
	fmt.Printf("   dedup %v, forward hops %d, cpu pressure +%d us\n", r.Dedup, r.Forwards, r.PSISomeUs)
	fmt.Printf("   canary %.2f ms (%.2f .. %.2f over rounds), %d rounds steady and counted\n", r.Canary.Value, r.Canary.Min, r.Canary.Max, r.Steady)
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func printLayers(p *layerPass, path string) {
	fmt.Printf("\n== %s  traced pass: each layer's public functions, timed from outside\n", p.w.name)
	for _, m := range perLayer {
		fmt.Printf("   %-36s %16.3f %-15s moves: %s\n", m.name, p.metrics[m.name].Value, m.unit, m.moves)
	}
	fmt.Printf("   verified calls %d, failed %d; %d spans written to %s\n", p.attempted, p.failed, len(p.sp.buf), path)
	for _, n := range p.notes {
		fmt.Printf("   note: %s\n", n)
	}
}
