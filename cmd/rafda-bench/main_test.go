package main

import (
	"strings"
	"testing"
)

// committed is where the committed BENCH_*.json records live, seen
// from this package's directory.
const committed = "../.."

func gated(t *testing.T) []*experiment {
	var out []*experiment
	for _, e := range experiments {
		if e.key != nil {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		t.Fatal("no gated experiments in the table")
	}
	return out
}

// Every gated entry's committed record parses, carries its key row, and
// passes the gate against itself.
func TestGateCommittedAgainstItself(t *testing.T) {
	for _, e := range gated(t) {
		name, val, err := keyAt(e, committed)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if val <= 0 {
			t.Fatalf("%s: committed %s is %v", e.id, name, val)
		}
		if err := verdict(e, name, val, val); err != nil {
			t.Errorf("%s against itself: %v", e.id, err)
		}
	}
	if err := runGate(experiments, committed, committed); err != nil {
		t.Fatal(err)
	}
}

// A fresh row just past the tolerance fails, and the failure names the row.
func TestGateFailsPastTolerance(t *testing.T) {
	for _, e := range gated(t) {
		name, val, err := keyAt(e, committed)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		err = verdict(e, name, val, val*(1-e.tol-0.01))
		if err == nil || !strings.Contains(err.Error(), e.id+" "+name) {
			t.Errorf("%s scaled by %.2f: got %v, want a failure naming %q", e.id, 1-e.tol-0.01, err, e.id+" "+name)
		}
	}
}

// A binary verdict dropping 1 -> 0 fails whatever the tolerance.
func TestGateBinaryDropFails(t *testing.T) {
	for _, id := range []string{"e12", "e14", "e15", "e15shed"} {
		if err := verdict(lookup(id), "ok", 1, 0); err == nil {
			t.Errorf("%s: 1 -> 0 passed the gate", id)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	sel, err := selectExperiments("e12, e15shed")
	if err != nil {
		t.Fatal(err)
	}
	if run := runnable(sel); len(run) != 2 || run[0].id != "e12" || run[1].id != "e15" {
		t.Fatalf("e12,e15shed runs %v, want e12 then e15", run)
	}
	if _, err := selectExperiments("e99"); err == nil || !strings.Contains(err.Error(), "e15shed") {
		t.Fatalf("unknown id: got %v, want an error listing the valid ids", err)
	}
}
