// Command rafda-bench regenerates the paper's figures and claims
// (DESIGN.md §4, EXPERIMENTS.md) as printed tables.  Each experiment is
// one entry of the table below; `rafda-bench -h` lists their ids.
//
//	rafda-bench [-exp ids] [-out dir] [-smoke] [-seeds n,...]
//
// -exp takes a comma list of ids, or all.  Experiments that keep a
// record write BENCH_<ID>.json into -out (default "."; "" writes
// nothing).  -smoke runs every experiment's short profile with its
// slackened acceptance bars.  -seeds replaces a profile's schedule
// seeds, to reproduce one chaos schedule.  An experiment's acceptance
// bars are its verdict: the command exits non-zero when any selected
// entry misses them.
//
// bench_test.go runs the same workloads as testing.B benchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// profile is one way to run an experiment: its phase lengths, seeds
// and acceptance bars.  Each experiment reads the fields it needs.
type profile struct {
	phase       time.Duration // e9/e10/e12/e13: each measured phase; e15: warm and recovery
	churn       time.Duration // e15: node death + link degradation window
	window      time.Duration // e9: adapter evaluation window
	seeds       []uint64      // e12/e14: fault schedules; e15: arrival schedule (first)
	rounds      int           // e14: alternating overhead rounds per arm
	calls       int           // e14: echo calls per overhead round
	auditCalls  int           // e14: acked calls per audit seed (must fit the span ring)
	rate        float64       // e15: offered arrivals/s
	objects     int           // e15: object population
	maxOverhead float64       // e14: tolerated traced-vs-untraced CPU/call
	minRatio    float64       // e9/e10: converged / manual-optimal throughput
	sloP99      time.Duration // e15: per-tenant clean-phase p99
}

// experiment is one row of the table.
type experiment struct {
	id, desc    string
	run         func(p profile, out string) error
	full, smoke profile
}

var experiments []*experiment

func init() {
	chaos := profile{phase: 3 * time.Second, seeds: []uint64{1, 2, 3}}
	e14full := profile{rounds: 5, calls: 12000, maxOverhead: 0.05, seeds: []uint64{1, 2}, auditCalls: 1200}
	e15full := profile{rate: 1200, objects: 2000, phase: 2 * time.Second, churn: 1500 * time.Millisecond,
		seeds: []uint64{1}, sloP99: 100 * time.Millisecond}
	experiments = []*experiment{
		{id: "e1", desc: "Figures 2-5: transformed listings for class X", run: e1},
		{id: "e2", desc: "§2.4 transformability over the JDK-like corpus", run: e2},
		{id: "e3", desc: "Figure 1 scenario: local vs distributed", run: e3},
		{id: "e4", desc: "§3 wrapper-vs-transformation overhead", run: e4},
		{id: "e5", desc: "proxy protocol comparison", run: e5},
		{id: "e6", desc: "§4 dynamic redistribution", run: e6},
		{id: "e8", run: e8,
			desc: "intra-node parallelism: sharded per-object VM locking vs coarse-lock baseline, " +
				"blocking CallOn invocations against distinct vs shared target objects"},
		{id: "e9", run: e9,
			desc: "adaptive placement: mis-placed hot object, telemetry-driven migration " +
				"vs manual-optimal placement, two nodes over simulated LAN",
			full:  profile{phase: 3 * time.Second, window: 75 * time.Millisecond, minRatio: 0.8},
			smoke: profile{phase: 1500 * time.Millisecond, window: 50 * time.Millisecond, minRatio: 0.5}},
		{id: "e10", run: e10,
			desc: "cluster coordination: 3-node gossip cluster converges a mis-placed hot object " +
				"via a multi-hop migration (proposer != source != target), zero manual calls",
			full:  profile{phase: 3 * time.Second, minRatio: 0.8},
			smoke: profile{phase: 1500 * time.Millisecond, minRatio: 0.5}},
		{id: "e12", run: e12,
			desc: "exactly-once invocation under injected faults: seeded frame duplication/drop/kill " +
				"chaos over the adaptive two-node workload; counter==acked-calls, zero create orphans, bounded windows",
			full:  chaos,
			smoke: profile{phase: time.Second, seeds: []uint64{1}}},
		{id: "e13", run: e13,
			desc: "read replication: one read-hot object, 3-node cluster; reads route to local " +
				"replicas while writes serialise through the lease-holding primary",
			full:  profile{phase: 3 * time.Second},
			smoke: profile{phase: 1500 * time.Millisecond}},
		{id: "e14", run: e14,
			desc: "tracing overhead + flight-recorder chaos audit: traced-vs-untraced echo medians within bound; " +
				"under dup/drop/kill chaos and a mid-run migration every acked call leaves a complete connected span tree",
			full: e14full,
			// Two short rounds on a noisy runner cannot resolve 5 %.
			smoke: profile{rounds: 2, calls: 4000, maxOverhead: 0.15, seeds: []uint64{1}, auditCalls: 600}},
		{id: "e15", run: e15,
			desc: "open-loop latency SLO: Poisson arrivals, Zipf object popularity, per-tenant " +
				"deadlined calls; node churn + link degradation mid-run; exact clean-phase percentiles vs SLO; " +
				"plus a proactive load-shedding arm at >=3x measured capacity",
			full: e15full,
			smoke: profile{rate: 500, objects: 600, phase: 1200 * time.Millisecond, churn: time.Second,
				seeds: []uint64{1}, sloP99: 250 * time.Millisecond}},
	}
}

// lookup returns the entry named id; ids come from the table itself.
func lookup(id string) *experiment {
	for _, e := range experiments {
		if e.id == id {
			return e
		}
	}
	panic("rafda-bench: no experiment " + id)
}

// selectExperiments resolves -exp, a comma list of ids or all, to the
// entries that run: each once, in table order.
func selectExperiments(list string) ([]*experiment, error) {
	if list == "all" {
		return experiments, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var sel []*experiment
	for _, e := range experiments {
		if want[e.id] {
			sel = append(sel, e)
			delete(want, e.id)
		}
	}
	for id := range want {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(ids(), ", "))
	}
	return sel, nil
}

func ids() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.id)
	}
	return out
}

// parseSeeds reads -seeds; empty keeps each profile's own seeds.
func parseSeeds(list string) ([]uint64, error) {
	if list == "" {
		return nil, nil
	}
	var seeds []uint64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %w", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// raceEnabled reports whether this binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				return true
			}
		}
	}
	return false
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: rafda-bench [-exp ids] [-out dir] [-smoke] [-seeds n,...]\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(os.Stderr, "\nexperiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-4s %s\n", e.id, e.desc)
	}
}

func main() {
	exp := flag.String("exp", "all", "comma list of experiment ids, or all")
	out := flag.String("out", ".", "directory for the BENCH_<ID>.json records (empty: write nothing)")
	smoke := flag.Bool("smoke", false, "run the short smoke profiles with their slackened bars")
	seedList := flag.String("seeds", "", "comma list of seeds replacing the profiles' schedule seeds")
	flag.Usage = usage
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "rafda-bench: %v\n", err)
		os.Exit(2)
	}
	sel, err := selectExperiments(*exp)
	if err != nil {
		fail(err)
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}

	var failed []string
	for _, e := range sel {
		p := e.full
		if *smoke {
			p = e.smoke
		}
		if seeds != nil {
			p.seeds = seeds
		}
		fmt.Printf("\n================ %s ================\n", strings.ToUpper(e.id))
		if err := e.run(p, *out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed = append(failed, e.id)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "\nfailed: %s\n", strings.Join(failed, ", "))
		os.Exit(1)
	}
}
