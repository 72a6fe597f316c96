package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeOpts is a 300 ms run: long enough for every code path, short
// enough for `go test`.
func smokeOpts() runOpts {
	return runOpts{seed: 1, rounds: 3, warm: 20 * time.Millisecond, slice: 100 * time.Millisecond}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, where string, defs []metricDef, got map[string]stat) {
	t.Helper()
	for _, m := range defs {
		if !nameRE.MatchString(m.name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", where, m.name)
		}
		s, ok := got[m.name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", where, m.name)
			continue
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			t.Errorf("%s: metric %s = %v, not finite", where, m.name, s.Value)
		}
		if s.Unit != m.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", where, m.name, s.Unit, m.unit)
		}
	}
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.name)
		}
		res, err := w.run(smokeOpts())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name, endToEnd, res.Metrics)
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d %v (%s) %v", w.name, res.Attempted, res.Failed, res.Fails, res.FirstErr, res.Notes)
		}
		if v := res.Metrics["ok_ratio"].Value; v != 1 {
			t.Errorf("%s: ok_ratio %v, want 1", w.name, v)
		}
	}
}

// A result the harness does not expect must count as a failure, not pass
// silently and not end the run.
func TestWrongResultIsCounted(t *testing.T) {
	for _, name := range []string{"rpc.small", "redistribute"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		o := smokeOpts()
		o.skew = 1
		res, err := w.run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted == 0 || res.Failed != res.Attempted || res.Fails["wrong-result"] == 0 {
			t.Errorf("%s: attempted %d, failed %d, by class %v: every call should be a wrong-result", name, res.Attempted, res.Failed, res.Fails)
		}
		if v := res.Metrics["ok_ratio"].Value; v != 0 {
			t.Errorf("%s: ok_ratio %v, want 0", name, v)
		}
	}
}

func TestClassify(t *testing.T) {
	for msg, want := range map[string]int{
		"load-shed: priority class 0 refused at inflight 9":                failShed,
		"node s: add deadline expired in gate queue (budget 5µs)":          failDeadline,
		"node server: duplicate of retired call client!2/7 rejected":       failRetired,
		"EchoSvc.add at rrp://127.0.0.1:1: dial tcp: connection refused":   failUnavailable,
		"uncaught sys.RemoteException: EchoSvc.add: unknown object server": failOther,
	} {
		if got := classify(errors.New(msg)); got != want {
			t.Errorf("classify(%q) = %s, want %s", msg, failNames[got], failNames[want])
		}
	}
}

// The traced pass at a tiny budget: every per-layer metric is emitted,
// for a workload with fixed results and for the counter workload.
func TestLayerPassEmitsEveryMetric(t *testing.T) {
	for _, name := range []string{"rpc.small", "redistribute"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.layerPass(1, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, name, perLayer, p.metrics)
		if p.attempted == 0 || p.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d %v", name, p.attempted, p.failed, p.notes)
		}
		path := t.TempDir() + "/trace.jsonl"
		if err := p.sp.write(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var first struct{ Name string }
		line, _, _ := bytes.Cut(raw, []byte("\n"))
		if err := json.Unmarshal(line, &first); err != nil || first.Name == "" {
			t.Errorf("%s: first span %q does not parse: %v", name, line, err)
		}
	}
}

// BENCHMARK.json and the tables in main.go name the same workloads and
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, doc []metric, defs []metricDef) {
		if len(doc) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(doc), kind, len(defs))
		}
		for i, m := range doc {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
