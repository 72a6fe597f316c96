package main

import (
	"fmt"
	"sync"
	"time"

	"rafda"
)

// counterSource is the E9/E10/E12/E14 workload: one hot shared object.
// bump does a little real work per call (a short accumulation loop) so
// a measurement compares placements, not just invocation plumbing;
// read and echo leave the count alone.
const counterSource = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int echo(int x) { return x; }
    int read() { return n; }
    int bump(int x) {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + x; }
        n = n + acc;
        return n;
    }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// The E9 engine tuning and the E9/E10 caller count.
const (
	e9Parallel  = 8
	e9Threshold = 0.6 // dominant-caller share needed to act
	e9MinCalls  = 24  // calls per window before a rule fires
	e9Confirm   = 2   // consecutive windows a proposal must recur
	e9Budget    = 2   // migrations per object per budget horizon
)

// E9Decision is one adapter decision, for the machine-readable log.
type E9Decision struct {
	Node     string `json:"node"`
	AtMs     int64  `json:"at_ms"` // offset from phase start
	Window   int    `json:"window"`
	Rule     string `json:"rule"`
	Action   string `json:"action"`
	GUID     string `json:"guid,omitempty"`
	Class    string `json:"class,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	Reason   string `json:"reason"`
	Executed bool   `json:"executed"`
	Err      string `json:"err,omitempty"`
}

// E9Report is the top-level BENCH_E9.json document.
type E9Report struct {
	header
	Parallel    int     `json:"parallelism"`
	AdaptWindow string  `json:"adapt_window"`
	Threshold   float64 `json:"adapt_threshold"`
	MinCalls    int     `json:"adapt_min_calls"`
	Confirm     int     `json:"adapt_confirm"`
	Budget      int     `json:"adapt_budget"`

	OptimalCallsPerSec   float64 `json:"optimal_calls_per_sec"`
	MisplacedCallsPerSec float64 `json:"misplaced_calls_per_sec"`
	ConvergedCallsPerSec float64 `json:"converged_calls_per_sec"`
	ConvergedRatio       float64 `json:"converged_ratio"`

	Buckets   []Bucket     `json:"buckets"`
	Decisions []E9Decision `json:"decisions"`
}

// e9Nodes deploys the E9 driver and server over the simulated LAN.
func e9Nodes() (driver, server *rafda.Node, epServer string, closeAll func(), err error) {
	tr, err := transformed(counterSource)
	if err != nil {
		return nil, nil, "", nil, err
	}
	nodes, eps, closeAll, err := deploy(tr, "rrp",
		rafda.NodeConfig{Name: "driver", Network: rafda.NetLAN},
		rafda.NodeConfig{Name: "server", Network: rafda.NetLAN})
	if err != nil {
		return nil, nil, "", nil, err
	}
	return nodes[0], nodes[1], eps[1], closeAll, nil
}

// bumpPhase hammers one Counter made through n with bump(1) calls for a
// timed phase.
func bumpPhase(n *rafda.Node, phase time.Duration) ([]Bucket, error) {
	made, err := n.Call("Setup", "make")
	if err != nil {
		return nil, err
	}
	ref := made.(*rafda.Ref)
	return timedPhase(load{parallel: e9Parallel, phase: phase}, func(int) error {
		_, err := n.CallOn(ref, "bump", 1)
		return err
	})
}

// converged scores a mis-placed phase against the manual-optimal one:
// its first bucket is the mis-placed cost, its tail third the converged
// steady state.
func converged(optimal float64, buckets []Bucket, minRatio float64) (misplaced, conv, ratio float64, err error) {
	misplaced, conv = buckets[0].CallsPerSec, tailMean(buckets)
	ratio = conv / optimal
	if ratio < minRatio {
		err = fmt.Errorf("converged throughput %.0f calls/s is %.0f%% of optimal %.0f — below the %.0f%% bar",
			conv, 100*ratio, optimal, 100*minRatio)
	}
	return misplaced, conv, ratio, err
}

// printTrajectory prints a timed phase's buckets.
func printTrajectory(buckets []Bucket) {
	fmt.Println("\nthroughput trajectory:")
	for _, b := range buckets {
		fmt.Printf("  t+%5dms %10.0f calls/s\n", b.OffsetMs, b.CallsPerSec)
	}
}

// e9 reproduces the paper's §4 "future work" as a closed loop: the same
// two-node deployment is measured with the hot object placed optimally
// by hand, then mis-placed with the adaptive engine switched on.  The
// engine must discover the call affinity, migrate the object to the
// driver (zero manual Migrate/PlaceClass), and converge throughput to
// at least minRatio of the manual-optimal deployment — without
// ping-ponging the object (budget respected).
func e9(p profile, out string) error {
	report := E9Report{
		header:      newHeader("e9"),
		Parallel:    e9Parallel,
		AdaptWindow: p.window.String(),
		Threshold:   e9Threshold,
		MinCalls:    e9MinCalls,
		Confirm:     e9Confirm,
		Budget:      e9Budget,
	}

	// Phase 1 — manual-optimal: the hot object is local to the driver.
	driver, _, _, closeAll, err := e9Nodes()
	if err != nil {
		return err
	}
	buckets, err := bumpPhase(driver, p.phase)
	closeAll()
	if err != nil {
		return err
	}
	report.OptimalCallsPerSec = tailMean(buckets)

	// Phase 2 — mis-placed with the adapter on: the object starts on
	// the server; every call crosses the simulated LAN until the engine
	// moves it.
	driver, server, epServer, closeAll, err := e9Nodes()
	if err != nil {
		return err
	}
	defer closeAll()
	phaseStart := time.Now()
	var decMu sync.Mutex
	acfg := func(name string) rafda.AdaptConfig {
		return rafda.AdaptConfig{
			Window: p.window, Threshold: e9Threshold, MinCalls: e9MinCalls, Confirm: e9Confirm, Budget: e9Budget,
			OnDecision: func(d rafda.AdaptDecision) {
				decMu.Lock()
				report.Decisions = append(report.Decisions, E9Decision{
					Node: name, AtMs: time.Since(phaseStart).Milliseconds(),
					Window: d.Window, Rule: d.Rule, Action: d.Kind.String(),
					GUID: d.GUID, Class: d.Class, Endpoint: d.Endpoint,
					Reason: d.Reason, Executed: d.Executed, Err: d.Err,
				})
				decMu.Unlock()
			},
		}
	}
	adA := driver.StartAdapter(acfg("driver"))
	adB := server.StartAdapter(acfg("server"))
	if err := driver.PlaceClass("Counter", epServer); err != nil {
		return err
	}
	buckets, err = bumpPhase(driver, p.phase)
	// Freeze the engines before reading the decision log: Stop waits
	// out any in-flight tick, so no OnDecision callback races the
	// acceptance checks or the JSON marshal below.
	adA.Stop()
	adB.Stop()
	if err != nil {
		return err
	}
	report.Buckets = buckets
	var ratioErr error
	report.MisplacedCallsPerSec, report.ConvergedCallsPerSec, report.ConvergedRatio, ratioErr =
		converged(report.OptimalCallsPerSec, buckets, p.minRatio)

	fmt.Printf("adaptive placement, %d callers over simulated LAN (window %v, threshold %.0f%%, confirm %d, budget %d)\n\n",
		e9Parallel, p.window, 100*e9Threshold, e9Confirm, e9Budget)
	fmt.Printf("  %-34s %12.0f calls/s\n", "manual-optimal (object local)", report.OptimalCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s\n", "mis-placed, first 100ms", report.MisplacedCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s  (%.0f%% of optimal)\n", "converged steady state",
		report.ConvergedCallsPerSec, 100*report.ConvergedRatio)
	printTrajectory(buckets)
	fmt.Println("\ndecision log:")
	for _, d := range report.Decisions {
		status := "executed"
		if !d.Executed {
			status = "held(" + d.Err + ")"
		}
		tgt := d.GUID
		if tgt == "" {
			tgt = "class " + d.Class
		}
		fmt.Printf("  t+%5dms %-7s %-11s %-12s %s -> %q  [%s]\n",
			d.AtMs, d.Node, d.Rule, d.Action, tgt, d.Endpoint, status)
	}

	// Acceptance: the loop must have closed — at least one executed
	// migration with no manual call, throughput converged, no target
	// over budget.
	migrations := map[string]int{}
	correct := 0
	for _, d := range report.Decisions {
		if d.Action != "migrate" || !d.Executed {
			continue
		}
		migrations[d.GUID]++
		if d.Node == "server" && d.Endpoint == driver.Endpoint("rrp") {
			correct++
		}
	}
	if correct == 0 {
		return fmt.Errorf("adapter made no correct migration decision (object never moved to the driver)")
	}
	for g, m := range migrations {
		if m > e9Budget {
			return fmt.Errorf("ping-pong: object %s migrated %d times (budget %d)", g, m, e9Budget)
		}
	}
	if ratioErr != nil {
		return ratioErr
	}
	fmt.Printf("\nclosed loop converged: %.0f%% of manual-optimal with %d automatic migration(s), zero manual calls\n",
		100*report.ConvergedRatio, correct)
	return writeReport(out, "e9", report)
}

// e10Heartbeat is the E10/E13 cluster gossip period.
const e10Heartbeat = 50 * time.Millisecond

// E10Event is one cluster coordination event, node-attributed.
type E10Event struct {
	Node   string `json:"node"`
	AtMs   int64  `json:"at_ms"`
	Tick   uint64 `json:"tick"`
	Kind   string `json:"kind"`
	Peer   string `json:"peer,omitempty"`
	GUID   string `json:"guid,omitempty"`
	Class  string `json:"class,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// E10Report is the top-level BENCH_E10.json document.
type E10Report struct {
	header
	Parallel  int    `json:"parallelism"`
	Heartbeat string `json:"cluster_heartbeat"`

	OptimalCallsPerSec   float64 `json:"optimal_calls_per_sec"`
	MisplacedCallsPerSec float64 `json:"misplaced_calls_per_sec"`
	ConvergedCallsPerSec float64 `json:"converged_calls_per_sec"`
	ConvergedRatio       float64 `json:"converged_ratio"`

	MultiHop struct {
		Proposer string `json:"proposer"`
		Source   string `json:"source"`
		Target   string `json:"target"`
	} `json:"multi_hop"`

	Buckets []Bucket   `json:"buckets"`
	Events  []E10Event `json:"events"`
}

// lanNodes deploys one named cluster-member node per name over the
// simulated LAN.
func lanNodes(tr *rafda.Transformed, names ...string) ([]*rafda.Node, []string, func(), error) {
	var cfgs []rafda.NodeConfig
	for _, name := range names {
		cfgs = append(cfgs, rafda.NodeConfig{Name: name, Network: rafda.NetLAN})
	}
	return deploy(tr, "rrp", cfgs...)
}

// e10 demonstrates the cluster coordination plane end to end: three
// nodes — "host" (initially owns the hot object), "caller" (drives all
// the traffic) and "scheduler" (idle, but the only member allowed to
// propose) — gossip membership, affinity rollups and placement intents.
// The scheduler must observe, via gossip alone, that the object on the
// host belongs at the caller, propose the host→caller migration (a
// multi-hop decision: proposer ≠ source ≠ target), and the host must
// execute it after reconciliation — zero manual Migrate/PlaceClass
// calls, no adapt engine anywhere.  The caller's stale proxy resolves
// the new home through the shared directory, and throughput converges
// to the manual-optimal deployment.
func e10(p profile, out string) error {
	report := E10Report{header: newHeader("e10"), Parallel: e9Parallel, Heartbeat: e10Heartbeat.String()}
	tr, err := transformed(counterSource)
	if err != nil {
		return err
	}

	// Phase 1 — manual-optimal baseline: the object is local to the
	// caller; same tail-mean statistic as phase 2.
	nodes, _, closeAll, err := lanNodes(tr, "caller")
	if err != nil {
		return err
	}
	buckets, err := bumpPhase(nodes[0], p.phase)
	closeAll()
	if err != nil {
		return err
	}
	report.OptimalCallsPerSec = tailMean(buckets)

	// Phase 2 — the cluster.
	nodes, eps, closeAll, err := lanNodes(tr, "scheduler", "host", "caller")
	if err != nil {
		return err
	}
	defer closeAll()
	caller := nodes[2]
	phaseStart := time.Now()
	var evMu sync.Mutex
	var clusters []*rafda.Cluster
	for i, name := range []string{"scheduler", "host", "caller"} {
		cl, err := nodes[i].JoinCluster(rafda.ClusterConfig{
			Seeds:     eps[:i],
			Heartbeat: e10Heartbeat,
			Fanout:    3,
			Propose:   name == "scheduler",
			OnEvent: func(e rafda.ClusterEvent) {
				evMu.Lock()
				report.Events = append(report.Events, E10Event{
					Node: name, AtMs: time.Since(phaseStart).Milliseconds(),
					Tick: e.Tick, Kind: string(e.Kind), Peer: e.Peer, GUID: e.GUID,
					Class: e.Class, From: e.From, To: e.To, Detail: e.Detail,
				})
				evMu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		clusters = append(clusters, cl)
	}
	for _, cl := range clusters {
		cl.Start()
	}

	// Mis-place the hot object on the host, then hammer it from the
	// caller.  Only the scheduler may propose; only the host may
	// execute; the caller only talks.
	if err := caller.PlaceClass("Counter", eps[1]); err != nil {
		return err
	}
	buckets, err = bumpPhase(caller, p.phase)
	// Freeze the plane before reading the logs.
	for _, cl := range clusters {
		cl.Stop()
	}
	if err != nil {
		return err
	}
	report.Buckets = buckets
	var ratioErr error
	report.MisplacedCallsPerSec, report.ConvergedCallsPerSec, report.ConvergedRatio, ratioErr =
		converged(report.OptimalCallsPerSec, buckets, p.minRatio)

	fmt.Printf("cluster coordination, %d callers over simulated LAN (heartbeat %v, fanout 3)\n\n",
		e9Parallel, e10Heartbeat)
	fmt.Printf("  %-34s %12.0f calls/s\n", "manual-optimal (object at caller)", report.OptimalCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s\n", "mis-placed, first 100ms", report.MisplacedCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s  (%.0f%% of optimal)\n", "converged steady state",
		report.ConvergedCallsPerSec, 100*report.ConvergedRatio)
	printTrajectory(buckets)
	fmt.Println("\ncoordination log (propose/intent/migrate/dir):")
	var migrations []E10Event
	for _, e := range report.Events {
		switch e.Kind {
		case "propose", "intent", "migrate", "migrate-fail", "dir", "class-apply":
			tgt := e.GUID
			if tgt == "" {
				tgt = "class " + e.Class
			}
			fmt.Printf("  t+%5dms %-10s %-12s %-14s %s -> %s  [%s]\n",
				e.AtMs, e.Node, e.Kind, tgt, e.From, e.To, e.Detail)
		}
		if e.Kind == "migrate" {
			migrations = append(migrations, e)
		}
	}

	// Acceptance: exactly one executed migration; it must be multi-hop
	// (proposed by the scheduler, executed by the host, targeting the
	// caller); throughput must converge.
	if len(migrations) != 1 {
		return fmt.Errorf("want exactly 1 executed migration, got %d: %+v", len(migrations), migrations)
	}
	m := migrations[0]
	if m.Node != "host" || m.Peer != "scheduler" || m.To != eps[2] {
		return fmt.Errorf("not the multi-hop migration wanted (proposer=scheduler source=host target=caller): %+v", m)
	}
	report.MultiHop.Proposer = m.Peer
	report.MultiHop.Source = m.Node
	report.MultiHop.Target = "caller"
	if ratioErr != nil {
		return ratioErr
	}
	fmt.Printf("\nmulti-hop converged: scheduler proposed, host executed, caller received — "+
		"%.0f%% of manual-optimal, zero manual calls\n", 100*report.ConvergedRatio)
	return writeReport(out, "e10", report)
}
