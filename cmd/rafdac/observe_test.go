package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rafda"
	"rafda/internal/metrics"
)

// TestTopRendersEveryInstrument serves a node over rrp, drives a few
// remote calls into it from a second node, and requires every row of
// the server's metrics snapshot — whatever plane registered it — to
// appear in top's output under its name and key.
func TestTopRendersEveryInstrument(t *testing.T) {
	prog, err := rafda.CompileString(`
class Counter {
    int n;
    int bump() { n = n + 1; return n; }
}
class Main {
    static int run() {
        Counter c = new Counter();
        c.bump();
        return c.bump();
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	server, err := tr.NewNode(rafda.NodeConfig{Name: "srv", Shed: rafda.ShedConfig{PriorityAt: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ep, err := server.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	client, err := tr.NewNode(rafda.NodeConfig{Name: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.PlaceClass("Counter", ep); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Call("Main", "run"); err != nil || got.(int64) != 2 {
		t.Fatalf("run = %v, %v", got, err)
	}

	var out bytes.Buffer
	if err := topOnce(&out, []string{ep}); err != nil {
		t.Fatal(err)
	}
	snap, err := server.IntrospectJSON("metrics", "")
	if err != nil {
		t.Fatal(err)
	}
	var in struct {
		Metrics []metrics.Row `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(snap), &in); err != nil {
		t.Fatal(err)
	}
	shown := map[[2]string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			shown[[2]string{f[0], ""}] = true
			shown[[2]string{f[0], f[1]}] = true
		}
	}
	kinds := map[string]bool{}
	for _, r := range in.Metrics {
		kinds[r.Kind] = true
		if !shown[[2]string{r.Name, r.Key}] {
			t.Errorf("top omits %s %q:\n%s", r.Name, r.Key, out.String())
		}
	}
	if !kinds["counter"] || !kinds["gauge"] || !kinds["hist"] {
		t.Fatalf("snapshot lacks a kind (have %v); the test proves less than it claims", kinds)
	}
}

// TestTopOfIdleServer: top's own requests are plane requests, so a server
// that served no program call reads node.calls_in 0 however often top
// looks at it, and node.plane_in counts the looks.
func TestTopOfIdleServer(t *testing.T) {
	prog, err := rafda.CompileString(`class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		t.Fatal(err)
	}
	server, err := tr.NewNode(rafda.NodeConfig{Name: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ep, err := server.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for range 2 {
		out.Reset()
		if err := topOnce(&out, []string{ep}); err != nil {
			t.Fatal(err)
		}
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			rows[f[0]] = f[1]
		}
	}
	if rows["node.calls_in"] != "0" || rows["node.plane_in"] != "1" {
		t.Fatalf("second top of an idle server: calls_in %q, plane_in %q, want 0 and 1\n%s",
			rows["node.calls_in"], rows["node.plane_in"], out.String())
	}
}
