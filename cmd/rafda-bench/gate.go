package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The perf-regression gate: compare freshly generated BENCH_*.json
// records against the committed ones and fail when a key row regresses
// beyond the tolerance.  One key row per experiment — the row each
// experiment's write-up treats as its headline:
//
//	e7   sim-LAN multiplexed p=64 calls/s    (wire concurrency ceiling)
//	e9   converged_ratio                     (adaptive convergence)
//	e10  converged_ratio                     (cluster convergence)
//	e11  best pooled sim-LAN p=64 calls/s    (pooled-transport ceiling)
//	e12  exactly_once_ok                     (chaos-audited correctness)
//	e13  read_lift                           (replication read scaling)
//	e14  overhead_ok                         (tracing overhead bound + chaos trace audit)
//	e15  slo_ok                              (open-loop per-tenant p99 vs SLO, binary)
//	e15shed  shed_ok                         (proactive shedding protects hp tenants at >=3x, binary)
//
// Ratios (e9/e10/e13) and the e12 pass fraction are machine-independent.  The calls/s rows (e7/e11)
// are only as sharp as the committed side: today's committed records
// come from the 1-core dev container, so against a faster CI runner
// they catch only catastrophic transport regressions — the ROADMAP
// names committing a runner-class record (and tightening the
// tolerance) as the follow-up that makes these rows bite.  The fresh
// side is always the bench-gate job's own runner class, so the
// comparison tightens automatically once the committed side matches.

// reportPath names experiment exp's BENCH record in dir.
func reportPath(dir, exp string) string {
	return filepath.Join(dir, "BENCH_"+strings.ToUpper(exp)+".json")
}

// writeReport writes experiment exp's record into dir; the empty dir
// writes nothing.
func writeReport(dir, exp string, report any) error {
	if dir == "" {
		return nil
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := reportPath(dir, exp)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nmachine-readable results written to %s\n", path)
	return nil
}

// readReport decodes one BENCH record into v.
func readReport(dir, exp string, v any) error {
	path := reportPath(dir, exp)
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// gateKeyMetric extracts the enforced key row from one experiment's
// record in dir.
func gateKeyMetric(exp, dir string) (name string, val float64, err error) {
	switch exp {
	case "e7":
		var r E7Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		for _, row := range r.Results {
			if row.Network == "lan" && row.Mode == "multiplexed" && row.Parallelism == 64 {
				return "lan/multiplexed/p64 calls/s", row.CallsPerSec, nil
			}
		}
		return "", 0, fmt.Errorf("e7: no lan/multiplexed/p64 row in %s", dir)
	case "e9":
		var r E9Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		return "converged_ratio", r.ConvergedRatio, nil
	case "e10":
		var r E10Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		return "converged_ratio", r.ConvergedRatio, nil
	case "e11":
		var r E11Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		var best float64
		for _, row := range r.Results {
			// Pool > 1 only: the key row must measure the *pooled*
			// ceiling — counting the pool=1 baseline would let a total
			// pooling collapse pass on the baseline's own throughput.
			if row.Network == "lan" && row.Parallelism == 64 && row.Pool > 1 && row.CallsPerSec > best {
				best = row.CallsPerSec
			}
		}
		if best == 0 {
			return "", 0, fmt.Errorf("e11: no pooled lan/p64 rows in %s", dir)
		}
		return "best pooled lan/p64 calls/s", best, nil
	case "e12":
		var r E12Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		return "exactly_once_ok", r.ExactlyOnceOK, nil
	case "e13":
		var r E13Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		return "read_lift", r.ReadLift, nil
	case "e14":
		var r E14Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		return "overhead_ok", r.OverheadOK, nil
	case "e15":
		var r E15Report
		if err := readReport(dir, exp, &r); err != nil {
			return "", 0, err
		}
		return "slo_ok", r.SloOK, nil
	case "e15shed":
		// The shed arm rides in e15's record; it gets its own gate row so
		// a shedding regression is named, not folded into slo_ok.
		var r E15Report
		if err := readReport(dir, "e15", &r); err != nil {
			return "", 0, err
		}
		return "shed_ok", r.ShedOK, nil
	default:
		return "", 0, fmt.Errorf("gate: no key metric defined for experiment %q", exp)
	}
}

// stableTolerance caps the tolerance for the stable tiers — records
// committed from the same runner class as CI, where 30% of headroom
// would hide real regressions.  The e15/e15shed rows are binary
// (slo_ok/shed_ok are 0 or 1), so any cap below 100% makes 1 -> 0 fail
// regardless of the flag.
const stableTolerance = 0.20

// gateTolerance resolves one experiment's effective tolerance: the
// -gate-tolerance flag, tightened to stableTolerance for the stable
// tiers.
func gateTolerance(exp string, flagTol float64) float64 {
	switch exp {
	case "e7", "e11", "e13", "e14", "e15", "e15shed":
		if flagTol > stableTolerance {
			return stableTolerance
		}
	}
	return flagTol
}

// runGate compares the fresh records in freshDir against the committed
// ones in committedDir, one key row per experiment, and returns an
// error naming every row that regressed more than its tolerance.
func runGate(exps []string, committedDir, freshDir string, tolerance float64) error {
	fmt.Printf("perf-regression gate: fresh %s vs committed %s, tolerance %.0f%% (stable tiers capped at %.0f%%)\n\n",
		freshDir, committedDir, 100*tolerance, 100*stableTolerance)
	fmt.Printf("  %-4s %-32s %12s %12s %8s %5s  %s\n", "exp", "key row", "committed", "fresh", "ratio", "tol", "verdict")
	var failures []string
	for _, exp := range exps {
		exp = strings.TrimSpace(exp)
		if exp == "" {
			continue
		}
		name, committed, err := gateKeyMetric(exp, committedDir)
		if err != nil {
			return fmt.Errorf("committed record: %w", err)
		}
		_, fresh, err := gateKeyMetric(exp, freshDir)
		if err != nil {
			return fmt.Errorf("fresh record: %w", err)
		}
		tol := gateTolerance(exp, tolerance)
		ratio := 0.0
		if committed > 0 {
			ratio = fresh / committed
		}
		verdict := "ok"
		if fresh < committed*(1-tol) {
			verdict = "REGRESSED"
			failures = append(failures,
				fmt.Sprintf("%s %s: fresh %.3g vs committed %.3g (%.0f%%, tolerance %.0f%%)",
					exp, name, fresh, committed, 100*ratio, 100*tol))
		}
		fmt.Printf("  %-4s %-32s %12.3f %12.3f %7.0f%% %4.0f%%  %s\n",
			exp, name, committed, fresh, 100*ratio, 100*tol, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d key row(s) regressed beyond tolerance:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("\ngate passed: no key row regressed beyond tolerance")
	return nil
}
