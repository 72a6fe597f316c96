package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"rafda"
)

// ----- E12: exactly-once invocation under injected faults -----

// The chaos workload is counterSource: bump is observably
// non-idempotent (each bump(1) adds exactly bumpDelta) and read does
// not mutate, so the final audit reads without disturbing the count.  A
// duplicate delivery that re-executes shows up as counter > bumpDelta ×
// acked calls; a lost execution shows up as counter < it.

// bumpDelta is what one acked bump(1) must add to the counter — the
// unit the exactly-once audit is denominated in.
const bumpDelta = 100

// The E12 workload shape under audit.
const (
	e12Parallel = 8
	e12Window   = 256 // per-caller dedup window cap
	e12Creates  = 150 // phase-B chaos creates for the orphan audit
)

// E12NodeDedup is one node's exactly-once counters after a seed run.
type E12NodeDedup struct {
	Node             string `json:"node"`
	ReplayHits       uint64 `json:"replay_hits"`
	Parked           uint64 `json:"parked_duplicates"`
	StaleRejected    uint64 `json:"stale_rejected"`
	Retired          uint64 `json:"retired"`
	Adopted          uint64 `json:"adopted"`
	Entries          int64  `json:"entries"`
	EntriesHighWater int64  `json:"entries_high_water"`
	Windows          int64  `json:"windows"`
	MemoryBound      int64  `json:"memory_bound"`
}

// E12SeedResult is one row of the seed matrix.
type E12SeedResult struct {
	Seed         uint64 `json:"seed"`
	AckedCalls   int64  `json:"acked_calls"`
	CounterValue int64  `json:"counter_value"`
	Expected     int64  `json:"expected_value"`
	Suppressed   uint64 `json:"duplicates_suppressed"`
	Migrations   int    `json:"migrations_executed"`

	AckedCreates int `json:"acked_creates"`
	ExportDelta  int `json:"export_delta"`
	CreateDelta  int `json:"construct_delta"`

	Dedup       []E12NodeDedup `json:"dedup"`
	ExactlyOnce bool           `json:"exactly_once"`
}

// E12Report is the top-level BENCH_E12.json document.  ExactlyOnceOK
// is the fraction of seeds whose audits all held; the run fails below
// 1.0 — there is no acceptable partial credit for duplicated
// side-effects.
type E12Report struct {
	header

	Parallel     int    `json:"parallelism"`
	Phase        string `json:"phase"`
	DupPerMille  int    `json:"dup_per_mille"`
	DropPerMille int    `json:"drop_per_mille"`
	KillPerMille int    `json:"kill_per_mille"`
	WindowCap    int    `json:"dedup_window_cap"`

	ExactlyOnceOK float64 `json:"exactly_once_ok"`

	Seeds []E12SeedResult `json:"seeds"`
}

// e12Nodes deploys a faulty two-node pair (driver, server) and returns
// the server's endpoint.
func e12Nodes(seed uint64) (driver, server *rafda.Node, epServer string, closeAll func(), err error) {
	tr, err := transformed(counterSource)
	if err != nil {
		return nil, nil, "", nil, err
	}
	mk := func(name string) rafda.NodeConfig {
		return rafda.NodeConfig{Name: name, Network: chaosNet(seed), Limits: rafda.LimitsConfig{DedupWindow: e12Window}}
	}
	nodes, eps, closeAll, err := deploy(tr, "rrp", mk("driver"), mk("server"))
	if err != nil {
		return nil, nil, "", nil, err
	}
	return nodes[0], nodes[1], eps[1], closeAll, nil
}

// dedupRows snapshots both nodes' exactly-once counters and checks the
// bounded-memory contract: a node's live replay cache never exceeded
// (cap+1) entries per caller window it tracks (the +1 is the in-flight
// entry Begin admits before eviction runs).
func dedupRows(driver, server *rafda.Node) ([]E12NodeDedup, uint64, error) {
	var rows []E12NodeDedup
	var suppressed uint64
	for _, nn := range []struct {
		name string
		n    *rafda.Node
	}{{"driver", driver}, {"server", server}} {
		s := nn.n.DedupStats()
		bound := s.Windows * int64(e12Window+1)
		rows = append(rows, E12NodeDedup{
			Node: nn.name, ReplayHits: s.ReplayHits, Parked: s.ParkedDuplicates,
			StaleRejected: s.StaleRejected, Retired: s.Retired, Adopted: s.Adopted,
			Entries: s.Entries, EntriesHighWater: s.EntriesHighWater,
			Windows: s.Windows, MemoryBound: bound,
		})
		suppressed += s.Suppressed()
		if s.EntriesHighWater > bound {
			return rows, suppressed, fmt.Errorf("%s dedup window unbounded: high water %d over bound %d (%d windows, cap %d)",
				nn.name, s.EntriesHighWater, bound, s.Windows, e12Window)
		}
	}
	return rows, suppressed, nil
}

// e12Seed runs the full audit for one fault schedule.
func e12Seed(phase time.Duration, seed uint64) (E12SeedResult, error) {
	row := E12SeedResult{Seed: seed}

	// Phase A — invoke chaos with adaptive migration mid-flight: the
	// hot counter starts mis-placed on the server, parallel callers
	// bump it through a lossy, duplicating link, and the adapter moves
	// it to the driver while the chaos runs (the dedup window must
	// travel with it).  Every CallOn that returns is one acked logical
	// call; transport-level retries of the same call reuse its token.
	driver, server, epServer, closeAll, err := e12Nodes(seed)
	if err != nil {
		return row, err
	}
	defer closeAll()

	var migrations atomic.Int32
	acfg := rafda.AdaptConfig{
		Window: 75 * time.Millisecond, Threshold: 0.6, MinCalls: 24,
		Confirm: 2, Budget: 4,
		OnDecision: func(d rafda.AdaptDecision) {
			if d.Kind.String() == "migrate" && d.Executed {
				migrations.Add(1)
			}
		},
	}
	adA := driver.StartAdapter(acfg)
	adB := server.StartAdapter(acfg)

	if err := driver.PlaceClass("Counter", epServer); err != nil {
		return row, err
	}
	made, err := driver.Call("Setup", "make")
	if err != nil {
		return row, err
	}
	ref := made.(*rafda.Ref)

	d, err := drive(load{parallel: e12Parallel, phase: phase}, func(int) error {
		_, err := driver.CallOn(ref, "bump", 1)
		return err
	})
	adA.Stop()
	adB.Stop()
	if err != nil {
		// With tokened transport retries an exhausted call is an
		// ambiguous outcome the audit cannot score; at the configured
		// fault rates it should never happen.
		return row, fmt.Errorf("caller saw an unrecovered error (retries exhausted): %w", err)
	}
	row.AckedCalls = d.calls
	row.Migrations = int(migrations.Load())

	v, err := driver.CallOn(ref, "read")
	if err != nil {
		return row, fmt.Errorf("final read: %w", err)
	}
	row.CounterValue = v.(int64)
	row.Expected = row.AckedCalls * bumpDelta

	rows, suppressed, err := dedupRows(driver, server)
	row.Dedup = rows
	row.Suppressed = suppressed
	if err != nil {
		return row, err
	}

	if row.CounterValue != row.Expected {
		return row, fmt.Errorf("exactly-once violated: counter %d after %d acked calls (expected %d; %+d side-effects)",
			row.CounterValue, row.AckedCalls, row.Expected,
			(row.CounterValue-row.Expected)/bumpDelta)
	}
	if row.Suppressed == 0 {
		return row, fmt.Errorf("chaos never exercised the dedup plane (0 duplicates suppressed) — fault rates too low to prove anything")
	}
	if row.Migrations == 0 {
		return row, fmt.Errorf("adapter executed no migration under chaos (the window-travels-with-object leg went untested)")
	}

	// Phase B — create chaos on a fresh pair (no adapter, so the class
	// placement stays remote): every construction crosses the faulty
	// link as an OpCreate.  Before the exactly-once plane, a retried
	// create re-ran the constructor and stranded the first instance in
	// the export table; now a duplicate must replay the original GUID.
	// The audit is two side-effect meters at the server: exported
	// objects and executed constructions, both exactly one per acked
	// create.
	cDriver, cServer, cEpServer, cClose, err := e12Nodes(seed + 0x5eed)
	if err != nil {
		return row, err
	}
	defer cClose()
	if err := cDriver.PlaceClass("Counter", cEpServer); err != nil {
		return row, err
	}
	before := cServer.Stats()
	for i := 0; i < e12Creates; i++ {
		if _, err := cDriver.Call("Setup", "make"); err != nil {
			return row, fmt.Errorf("chaos create %d: %w", i, err)
		}
		row.AckedCreates++
	}
	after := cServer.Stats()
	row.ExportDelta = after.Exports - before.Exports
	row.CreateDelta = int(after.Creates - before.Creates)
	if row.ExportDelta != row.AckedCreates {
		return row, fmt.Errorf("stranded orphans: %d acked creates left %d exports (+%d orphaned instances)",
			row.AckedCreates, row.ExportDelta, row.ExportDelta-row.AckedCreates)
	}
	if row.CreateDelta != row.AckedCreates {
		return row, fmt.Errorf("constructor ran %d times for %d acked creates", row.CreateDelta, row.AckedCreates)
	}

	row.ExactlyOnce = true
	return row, nil
}

// e12 proves the exactly-once invocation contract under deterministic
// chaos: seeded per-connection fault schedules duplicate, swallow and
// kill frames mid-flight while the E9-style adaptive workload runs,
// and three audits must hold for every seed — the non-idempotent
// counter equals acked-calls × bumpDelta exactly (no duplicate and no
// lost side-effects, across an adapter-driven migration mid-chaos),
// chaos creates strand zero orphan instances, and the per-caller dedup
// windows stay within their configured memory bound.  Every seed runs
// and the record keeps every row, so a failing schedule is named in it.
func e12(p profile, out string) error {
	report := E12Report{
		header:       newHeader("e12"),
		Parallel:     e12Parallel,
		Phase:        p.phase.String(),
		DupPerMille:  chaosDup,
		DropPerMille: chaosDrop,
		KillPerMille: chaosKill,
		WindowCap:    e12Window,
	}
	fmt.Printf("injected chaos (dup %d‰, drop %d‰, kill %d‰ per frame), %d callers, %v per seed, window cap %d\n\n",
		chaosDup, chaosDrop, chaosKill, e12Parallel, p.phase, e12Window)
	fmt.Printf("  %-6s %10s %12s %10s %6s %8s %8s %7s  %s\n",
		"seed", "acked", "counter", "suppressed", "migr", "creates", "exports", "constr", "verdict")
	var failed []uint64
	var suppressed uint64
	for _, seed := range p.seeds {
		row, err := e12Seed(p.phase, seed)
		verdict := "exactly-once"
		if err != nil {
			verdict = "FAILED: " + err.Error()
			failed = append(failed, seed)
		}
		report.Seeds = append(report.Seeds, row)
		suppressed += row.Suppressed
		fmt.Printf("  %-6d %10d %12d %10d %6d %8d %8d %7d  %s\n",
			row.Seed, row.AckedCalls, row.CounterValue, row.Suppressed,
			row.Migrations, row.AckedCreates, row.ExportDelta, row.CreateDelta, verdict)
	}
	report.ExactlyOnceOK = float64(len(p.seeds)-len(failed)) / float64(len(p.seeds))
	if err := writeReport(out, "e12", report); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("fault schedule(s) %v broke the contract (reproduce one with -exp e12 -seeds N)", failed)
	}
	fmt.Printf("\nall %d fault schedules held the contract: %d duplicate deliveries suppressed, zero duplicate side-effects, zero orphans\n",
		len(p.seeds), suppressed)
	return nil
}
