// Adaptive distribution (§4 future work): "the distributed program can
// adapt to its environment by dynamically altering its distribution
// boundaries."  A cache class starts on a remote node behind a degraded
// (WAN-like) link.  The node's adaptive placement engine watches the
// call-affinity telemetry, migrates the hot cache next to its caller,
// and re-points the creation policy — no manual Migrate or PlaceClass,
// while the program keeps running untouched (see docs/ADAPTIVE.md).
package main

import (
	"fmt"
	"os"
	"time"

	"rafda"
)

const source = `
class Cache {
    int hits;
    int entries;
    Cache(int entries) { this.entries = entries; this.hits = 0; }
    int lookup(int key) {
        hits = hits + 1;
        return key % entries;
    }
}
class App {
    static Cache cache = new Cache(64);
    static int query(int k) { return cache.lookup(k); }
    static int hits() { return cache.hits; }
}
class Main { static void main() {} }`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}

func run() error {
	prog, err := rafda.CompileString(source)
	if err != nil {
		return err
	}
	tr, err := prog.Transform()
	if err != nil {
		return err
	}

	app, err := tr.NewNode(rafda.NodeConfig{Name: "app"})
	if err != nil {
		return err
	}
	defer app.Close()
	// The far node sits behind a degraded (WAN-like) simulated link.
	far, err := tr.NewNode(rafda.NodeConfig{
		Name:    "far",
		Network: rafda.NetProfile{Latency: 3 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	defer far.Close()

	farEP, err := far.Serve("rrp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if _, err := app.Serve("rrp", "127.0.0.1:0"); err != nil {
		return err
	}

	// Close the loop: both nodes watch their own call affinity.  The far
	// node will see the cache's calls all arriving from the app node and
	// migrate it there; the app node will see its own remote traffic and
	// pull the class policy home for future caches.
	cfg := rafda.AdaptConfig{
		Window:    50 * time.Millisecond,
		Threshold: 0.6,
		MinCalls:  8,
		Confirm:   2,
		OnDecision: func(d rafda.AdaptDecision) {
			status := "held"
			if d.Executed {
				status = "executed"
			}
			target := d.GUID
			if target == "" {
				target = "class " + d.Class
			}
			fmt.Printf("  [engine] %-11s %s -> %q (%s)\n", d.Kind, target, d.Endpoint, status)
		},
	}
	app.StartAdapter(cfg)
	far.StartAdapter(cfg)

	// Deploy the cache remotely to begin with — the mis-placement the
	// engine has to discover and undo.
	if err := app.PlaceClass("Cache", farEP); err != nil {
		return err
	}

	measure := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := app.Call("App", "query", i); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(n), nil
	}

	fmt.Println("== phase 1: cache deployed on the far node, engine watching ==")
	perCall, err := measure(20)
	if err != nil {
		return err
	}
	fmt.Printf("  observed %v per call\n", perCall.Round(time.Microsecond))

	// Keep the workload running; the engine adapts underneath it.
	fmt.Println("\n== traffic continues; the engine redraws the boundary ==")
	deadline := time.Now().Add(10 * time.Second)
	for app.Stats().MigrationsIn == 0 && time.Now().Before(deadline) {
		if _, err := measure(10); err != nil {
			return err
		}
	}
	if app.Stats().MigrationsIn == 0 {
		return fmt.Errorf("engine never migrated the cache")
	}

	fmt.Println("\n== phase 2: after automatic adaptation ==")
	perCall, err = measure(20)
	if err != nil {
		return err
	}
	fmt.Printf("  observed %v per call\n", perCall.Round(time.Microsecond))

	hits, err := app.Call("App", "hits")
	if err != nil {
		return err
	}
	fmt.Printf("  cache hit counter carried across the boundary change: %d\n", hits.(int64))
	return nil
}
