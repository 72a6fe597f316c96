package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The perf-regression gate: one key row per gated table entry — the
// row each experiment's write-up treats as its headline — compared
// between a fresh record and the committed one.
//
// Ratios (e9/e10/e13), the e12 pass fraction and the binary verdicts
// (e14/e15/e15shed) are machine-independent.  The calls/s rows (e7/e11)
// are only as sharp as the runner class is close to the committed
// records' host: those are GOMAXPROCS=2 records from a 2-vCPU container,
// so a CI runner of another class shifts them by its own speed and the
// rows catch gross transport regressions, not percent-level ones.

// keyRow builds a gate key: decode the record as R and pick the row.
func keyRow[R any](name string, pick func(R) float64) func([]byte) (string, float64, error) {
	return func(b []byte) (string, float64, error) {
		var r R
		if err := json.Unmarshal(b, &r); err != nil {
			return name, 0, err
		}
		return name, pick(r), nil
	}
}

// keyAt reads e's key row out of its record in dir.
func keyAt(e *experiment, dir string) (string, float64, error) {
	rec := e.id
	if e.of != "" {
		rec = e.of
	}
	path := reportPath(dir, rec)
	b, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	name, val, err := e.key(b)
	if err != nil {
		return name, val, fmt.Errorf("%s: %w", path, err)
	}
	return name, val, nil
}

// verdict is nil, or the regression of e's key row beyond e's tolerance.
func verdict(e *experiment, name string, committed, fresh float64) error {
	if fresh < committed*(1-e.tol) {
		return fmt.Errorf("%s %s: fresh %.3g vs committed %.3g (%.0f%%, tolerance %.0f%%)",
			e.id, name, fresh, committed, 100*fresh/committed, 100*e.tol)
	}
	return nil
}

// runGate compares the gated entries of sel between the fresh records
// in freshDir and the committed ones in committedDir and returns an
// error naming every row that regressed beyond its tolerance.
func runGate(sel []*experiment, committedDir, freshDir string) error {
	fmt.Printf("\nperf-regression gate: fresh %s vs committed %s\n\n", freshDir, committedDir)
	fmt.Printf("  %-8s %-30s %12s %12s %8s %5s  %s\n", "exp", "key row", "committed", "fresh", "ratio", "tol", "verdict")
	var failures []string
	for _, e := range sel {
		if e.key == nil {
			continue
		}
		name, committed, err := keyAt(e, committedDir)
		if err == nil && committed <= 0 {
			err = fmt.Errorf("%s %s is %v: nothing to hold the fresh run to", e.id, name, committed)
		}
		if err != nil {
			return fmt.Errorf("committed record: %w", err)
		}
		_, fresh, err := keyAt(e, freshDir)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: fresh record: %v", e.id, err))
			fmt.Printf("  %-8s %-30s %12.3f %12s %8s %4.0f%%  NO RECORD\n", e.id, name, committed, "-", "-", 100*e.tol)
			continue
		}
		v := "ok"
		if err := verdict(e, name, committed, fresh); err != nil {
			v = "REGRESSED"
			failures = append(failures, err.Error())
		}
		fmt.Printf("  %-8s %-30s %12.3f %12.3f %7.0f%% %4.0f%%  %s\n",
			e.id, name, committed, fresh, 100*fresh/committed, 100*e.tol, v)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d key row(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("\ngate passed: no key row regressed beyond tolerance")
	return nil
}
