package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles prints one row per workload x end-to-end metric of two
// result sets and reports whether any row is worse.  A workload's
// figure is its last run in the set; a set whose run was left
// unresolved, or that lacks the workload, yields no verdict.
func compareFiles(pathA, pathB string) (worse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Printf("%-13s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		for _, m := range endToEnd {
			if ra == nil || rb == nil || ra.Status == "unresolved" || rb.Status == "unresolved" {
				fmt.Printf("%-13s %-16s %14s %14s %9s %6g%%  unresolved\n", w.name, m.name, "-", "-", "-", m.bound*100)
				continue
			}
			va, vb := ra.Metrics[m.name].Value, rb.Metrics[m.name].Value
			v := verdict(m, va, vb)
			worse = worse || v == "worse"
			fmt.Printf("%-13s %-16s %14.4f %14.4f %+8.2f%% %6g%%  %s\n", w.name, m.name, va, vb, (vb-va)/va*100, m.bound*100, v)
		}
	}
	return worse, nil
}

// verdict places b against a: worse or better only when they differ by
// more than the metric's bound, as a share of a.
func verdict(m metricDef, a, b float64) string {
	gain := (b - a) / a
	if m.better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -m.bound:
		return "worse"
	case gain > m.bound:
		return "better"
	}
	return "same"
}

func readSet(path string) (map[string]*runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	last := map[string]*runResult{}
	for _, r := range s.Runs {
		last[r.Workload] = r
	}
	return last, nil
}
