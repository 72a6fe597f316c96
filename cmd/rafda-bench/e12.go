package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafda"
)

// ----- E12: exactly-once invocation under injected faults -----

// e12Source is the chaos workload: an E9-style hot counter whose bump
// is observably non-idempotent (each bump(1) adds exactly 100), plus a
// read so the final audit does not mutate.  A duplicate delivery that
// re-executes shows up as counter > 100 × acked calls; a lost
// execution shows up as counter < it.
const e12Source = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
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

// bumpDelta is what one acked bump(1) must add to the counter — the
// unit the exactly-once audit is denominated in.
const bumpDelta = 100

// e12Config carries the -e12-* flag values.
type e12Config struct {
	phase    time.Duration
	parallel int
	seeds    string
	dup      int // per-mille duplicated frames
	drop     int // per-mille swallowed frames (link then torn down)
	kill     int // per-mille kill-mid-flight
	window   int // per-caller dedup window cap
	creates  int // phase-B chaos creates for the orphan audit
	pool     int
}

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
// is the gate's key row: the fraction of seeds whose audits all held
// (1.0 or the gate fails — there is no acceptable partial credit for
// duplicated side-effects).
type E12Report struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`

	Parallel     int    `json:"parallelism"`
	Phase        string `json:"phase"`
	DupPerMille  int    `json:"dup_per_mille"`
	DropPerMille int    `json:"drop_per_mille"`
	KillPerMille int    `json:"kill_per_mille"`
	WindowCap    int    `json:"dedup_window_cap"`

	ExactlyOnceOK float64 `json:"exactly_once_ok"`

	Seeds []E12SeedResult `json:"seeds"`
}

// e12Faults builds the per-seed chaos profile.  The first writes of
// every connection are exempt so dial-time traffic (and the short
// phase-B control exchanges) cannot be starved outright — chaos is
// meant to exercise retries, not to make the workload undeliverable.
func e12Faults(cfg e12Config, seed uint64) rafda.NetProfile {
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

// e12Nodes builds a faulty two-node deployment (driver, server).
func e12Nodes(cfg e12Config, seed uint64) (*rafda.Node, *rafda.Node, string, error) {
	prog, err := rafda.CompileString(e12Source)
	if err != nil {
		return nil, nil, "", err
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		return nil, nil, "", err
	}
	mk := func(name string) (*rafda.Node, error) {
		return tr.NewNode(rafda.NodeConfig{
			Name: name, Network: e12Faults(cfg, seed),
			PoolSize: cfg.pool, Limits: rafda.LimitsConfig{DedupWindow: cfg.window},
		})
	}
	driver, err := mk("driver")
	if err != nil {
		return nil, nil, "", err
	}
	server, err := mk("server")
	if err != nil {
		driver.Close()
		return nil, nil, "", err
	}
	if _, err := driver.Serve("rrp", ""); err == nil {
		var epB string
		if epB, err = server.Serve("rrp", ""); err == nil {
			return driver, server, epB, nil
		}
	}
	driver.Close()
	server.Close()
	return nil, nil, "", err
}

// dedupRows snapshots both nodes' exactly-once counters and checks the
// bounded-memory contract: a node's live replay cache never exceeded
// (cap+1) entries per caller window it tracks (the +1 is the in-flight
// entry Begin admits before eviction runs).
func dedupRows(cfg e12Config, driver, server *rafda.Node) ([]E12NodeDedup, uint64, error) {
	var rows []E12NodeDedup
	var suppressed uint64
	for _, nn := range []struct {
		name string
		n    *rafda.Node
	}{{"driver", driver}, {"server", server}} {
		s := nn.n.DedupStats()
		bound := s.Windows * int64(cfg.window+1)
		rows = append(rows, E12NodeDedup{
			Node: nn.name, ReplayHits: s.ReplayHits, Parked: s.ParkedDuplicates,
			StaleRejected: s.StaleRejected, Retired: s.Retired, Adopted: s.Adopted,
			Entries: s.Entries, EntriesHighWater: s.EntriesHighWater,
			Windows: s.Windows, MemoryBound: bound,
		})
		suppressed += s.Suppressed()
		if s.EntriesHighWater > bound {
			return rows, suppressed, fmt.Errorf("%s dedup window unbounded: high water %d over bound %d (%d windows, cap %d)",
				nn.name, s.EntriesHighWater, bound, s.Windows, cfg.window)
		}
	}
	return rows, suppressed, nil
}

// e12Seed runs the full audit for one fault schedule.
func e12Seed(cfg e12Config, seed uint64) (E12SeedResult, error) {
	row := E12SeedResult{Seed: seed}

	// Phase A — invoke chaos with adaptive migration mid-flight: the
	// hot counter starts mis-placed on the server, parallel callers
	// bump it through a lossy, duplicating link, and the adapter moves
	// it to the driver while the chaos runs (the dedup window must
	// travel with it).  Every CallOn that returns is one acked logical
	// call; transport-level retries of the same call reuse its token.
	driver, server, epB, err := e12Nodes(cfg, seed)
	if err != nil {
		return row, err
	}
	defer driver.Close()
	defer server.Close()

	var migrations atomic.Int32
	acfg := rafda.AdaptConfig{
		Window: 75 * time.Millisecond, Threshold: 0.6, MinCalls: 24,
		Confirm: 2, Budget: 4,
		OnDecision: func(d rafda.AdaptDecision) {
			if d.Action == "migrate" && d.Executed {
				migrations.Add(1)
			}
		},
	}
	adA := driver.StartAdapter(acfg)
	adB := server.StartAdapter(acfg)

	if err := driver.PlaceClass("Counter", epB); err != nil {
		return row, err
	}
	made, err := driver.Call("Setup", "make")
	if err != nil {
		return row, err
	}
	ref := made.(*rafda.Ref)

	var acked atomic.Int64
	errs := make(chan error, cfg.parallel)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < cfg.parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := driver.CallOn(ref, "bump", 1); err != nil {
					errs <- err
					return
				}
				acked.Add(1)
			}
		}()
	}
	time.Sleep(cfg.phase)
	close(stop)
	wg.Wait()
	adA.Stop()
	adB.Stop()
	select {
	case err := <-errs:
		// With tokened transport retries an exhausted call is an
		// ambiguous outcome the audit cannot score; at the configured
		// fault rates it should never happen.
		return row, fmt.Errorf("caller saw an unrecovered error (retries exhausted): %w", err)
	default:
	}
	row.AckedCalls = acked.Load()
	row.Migrations = int(migrations.Load())

	v, err := driver.CallOn(ref, "read")
	if err != nil {
		return row, fmt.Errorf("final read: %w", err)
	}
	row.CounterValue = v.(int64)
	row.Expected = row.AckedCalls * bumpDelta

	rows, suppressed, err := dedupRows(cfg, driver, server)
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
	cDriver, cServer, cEpB, err := e12Nodes(cfg, seed+0x5eed)
	if err != nil {
		return row, err
	}
	defer cDriver.Close()
	defer cServer.Close()
	if err := cDriver.PlaceClass("Counter", cEpB); err != nil {
		return row, err
	}
	before := cServer.Stats()
	refs := make([]*rafda.Ref, 0, cfg.creates)
	for i := 0; i < cfg.creates; i++ {
		made, err := cDriver.Call("Setup", "make")
		if err != nil {
			return row, fmt.Errorf("chaos create %d: %w", i, err)
		}
		refs = append(refs, made.(*rafda.Ref))
	}
	after := cServer.Stats()
	row.AckedCreates = len(refs)
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
// chaos creates strand zero orphan instances (the old OpCreate retry
// exemption is gone), and the per-caller dedup windows stay within
// their configured memory bound.
func e12(cfg e12Config, out string) error {
	report := E12Report{
		Experiment: "e12",
		Description: "exactly-once invocation under injected faults: seeded frame duplication/drop/kill " +
			"chaos over the adaptive two-node workload; counter==acked-calls, zero create orphans, bounded windows",
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Parallel:     cfg.parallel,
		Phase:        cfg.phase.String(),
		DupPerMille:  cfg.dup,
		DropPerMille: cfg.drop,
		KillPerMille: cfg.kill,
		WindowCap:    cfg.window,
	}
	var seeds []uint64
	for _, s := range strings.Split(cfg.seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -e12-seeds entry %q: %w", s, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return fmt.Errorf("empty -e12-seeds")
	}

	fmt.Printf("injected chaos (dup %d‰, drop %d‰, kill %d‰ per frame), %d callers, %v per seed, window cap %d\n\n",
		cfg.dup, cfg.drop, cfg.kill, cfg.parallel, cfg.phase, cfg.window)
	fmt.Printf("  %-6s %10s %12s %10s %6s %8s %8s %7s  %s\n",
		"seed", "acked", "counter", "suppressed", "migr", "creates", "exports", "constr", "verdict")
	ok := 0
	for _, seed := range seeds {
		row, err := e12Seed(cfg, seed)
		verdict := "exactly-once"
		if err != nil {
			verdict = "FAILED: " + err.Error()
		} else {
			ok++
		}
		report.Seeds = append(report.Seeds, row)
		fmt.Printf("  %-6d %10d %12d %10d %6d %8d %8d %7d  %s\n",
			row.Seed, row.AckedCalls, row.CounterValue, row.Suppressed,
			row.Migrations, row.AckedCreates, row.ExportDelta, row.CreateDelta, verdict)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	report.ExactlyOnceOK = float64(ok) / float64(len(seeds))
	var suppressed uint64
	for _, r := range report.Seeds {
		suppressed += r.Suppressed
	}
	fmt.Printf("\nall %d fault schedules held the contract: %d duplicate deliveries suppressed, zero duplicate side-effects, zero orphans\n",
		len(seeds), suppressed)

	return writeReport(out, "e12", report)
}
