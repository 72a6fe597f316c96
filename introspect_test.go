package rafda

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rafda/internal/metrics"
)

// TestIntrospectTelemetrySections reads the telemetry facts of the
// "metrics" snapshot — the objects and classes sections, and the
// peer.calls, peer.bytes and peer.rtt_ns registry rows — on a pair where
// each node serves one call and makes one outgoing proxy call: a calls
// relay() on the Outer placed at b, whose relay calls get() on the
// Inner that stayed at a.  Every section must use snake_case keys, and
// each count must be exactly that one call: peer.calls{b} is the class's
// out_calls[b] and peer.bytes{b} its out_bytes.
func TestIntrospectTelemetrySections(t *testing.T) {
	tr := traceFixture(t)
	a, epA := traceNode(t, tr, "a", NetProfile{})
	b, epB := traceNode(t, tr, "b", NetProfile{})
	if err := a.PlaceClass("Outer", epB); err != nil {
		t.Fatal(err)
	}
	made, err := a.Call("Mk", "outer")
	if err != nil {
		t.Fatal(err)
	}
	// Enabled after construction, so only the relay chain is counted.
	a.EnableTelemetry()
	b.EnableTelemetry()
	if got, err := a.CallOn(made.(*Ref), "relay"); err != nil || got.(int64) != 9 {
		t.Fatalf("relay=%v err=%v", got, err)
	}

	for _, tc := range []struct {
		name           string
		node           *Node
		peer           string
		served, called string
	}{
		{"a", a, epB, "Inner", "Outer"},
		{"b", b, epA, "Outer", "Inner"},
	} {
		out, err := tc.node.IntrospectJSON("metrics", "")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Objects []map[string]any `json:"objects"`
			Classes []map[string]any `json:"classes"`
			Metrics []metrics.Row    `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(out), &snap); err != nil {
			t.Fatal(err)
		}
		name := tc.name

		// a's host-driven relay also counts as a local call on its
		// Outer proxy; the served object is the one of class tc.served.
		i := slices.IndexFunc(snap.Objects, func(o map[string]any) bool { return o["class"] == tc.served })
		if i < 0 {
			t.Fatalf("%s objects = %v, want the served %s", name, snap.Objects, tc.served)
		}
		o := snap.Objects[i]
		wantKeys(t, name+" object", o, "guid", "class", "local", "remote", "callers",
			"bytes_in", "bytes_out", "reads", "writes", "ewma_latency_ns")
		if o["class"] != tc.served || o["remote"] != 1.0 || o["local"] != 0.0 ||
			!reflect.DeepEqual(o["callers"], map[string]any{tc.peer: 1.0}) {
			t.Fatalf("%s object = %v, want one %s call from %s", name, o, tc.served, tc.peer)
		}

		if len(snap.Classes) != 1 {
			t.Fatalf("%s classes = %v, want the one called %s", name, snap.Classes, tc.called)
		}
		c := snap.Classes[0]
		wantKeys(t, name+" class", c, "class", "local_creates", "served_anon",
			"out_calls", "out_bytes", "out_ewma_ns")
		if c["class"] != tc.called || c["local_creates"] != 0.0 ||
			!reflect.DeepEqual(c["out_calls"], map[string]any{tc.peer: 1.0}) ||
			c["out_bytes"].(float64) <= 0 || c["out_ewma_ns"].(float64) <= 0 {
			t.Fatalf("%s class = %v, want one %s call to %s", name, c, tc.called, tc.peer)
		}

		// The peer rollups are registry rows, one per family.
		peer := map[string]metrics.Row{}
		for _, row := range snap.Metrics {
			if strings.HasPrefix(row.Name, "peer.") {
				if row.Key != tc.peer {
					t.Fatalf("%s peer row %+v, want only %s", name, row, tc.peer)
				}
				peer[row.Name] = row
			}
		}
		if len(peer) != 3 || float64(peer["peer.calls"].Value) != c["out_calls"].(map[string]any)[tc.peer] ||
			float64(peer["peer.bytes"].Value) != c["out_bytes"] ||
			peer["peer.rtt_ns"].Kind != "ewma" || peer["peer.rtt_ns"].Value <= 0 {
			t.Fatalf("%s peer rows = %+v, want one call to %s", name, peer, tc.peer)
		}
	}
}

func wantKeys(t *testing.T, what string, m map[string]any, keys ...string) {
	t.Helper()
	var got []string
	for k := range m {
		got = append(got, k)
	}
	slices.Sort(got)
	slices.Sort(keys)
	if !slices.Equal(got, keys) {
		t.Fatalf("%s keys = %v, want %v", what, got, keys)
	}
}
