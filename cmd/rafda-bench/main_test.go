package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// -exp resolves to the entries that run: each once, in table order.
func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string
	}{
		{"e12, e9", []string{"e9", "e12"}},
		{"e9,e9", []string{"e9"}},
		{"all", ids()},
	} {
		sel, err := selectExperiments(tc.list)
		if err != nil {
			t.Fatalf("%q: %v", tc.list, err)
		}
		var got []string
		seen := map[string]bool{}
		for _, e := range sel {
			if seen[e.id] {
				t.Errorf("%q runs %s twice", tc.list, e.id)
			}
			seen[e.id] = true
			got = append(got, e.id)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q runs %v, want %v", tc.list, got, tc.want)
		}
	}
	for _, list := range []string{"e99", "e9,e7"} {
		_, err := selectExperiments(list)
		if err == nil || !strings.Contains(err.Error(), strings.Join(ids(), ", ")) {
			t.Errorf("%q: got %v, want an error listing the valid ids", list, err)
		}
	}
}

// e8Rows are the p64 rows of the committed BENCH_E8.json, in calls/s.
var e8Rows = map[string]float64{
	"coarse/distinct/p64":  909.6,
	"sharded/distinct/p64": 53966.3,
	"coarse/shared/p64":    902.8,
	"sharded/shared/p64":   901.6,
}

func TestE8Verdict(t *testing.T) {
	if err := e8Verdict(e8Rows); err != nil {
		t.Fatalf("committed rows: %v", err)
	}

	overlapped := maps.Clone(e8Rows)
	overlapped["sharded/shared/p64"] *= 2
	if err := e8Verdict(overlapped); err == nil || !strings.Contains(err.Error(), "sharded/shared/p64") {
		t.Errorf("shared/p64 doubled: got %v, want a failure naming sharded/shared/p64", err)
	}

	serial := maps.Clone(e8Rows)
	serial["sharded/distinct/p64"] = 2 * serial["coarse/distinct/p64"]
	if err := e8Verdict(serial); err == nil || !strings.Contains(err.Error(), "sharded/distinct/p64") {
		t.Errorf("distinct lift 2x: got %v, want a failure naming sharded/distinct/p64", err)
	}
}
