package main

// The experiments of DESIGN.md §4 as testing.B benchmarks: thin loops
// over the workload sources, deployment builders and driver the reports
// use.  EXPERIMENTS.md records the paper claim vs. the measured shape
// for each.

import (
	"fmt"
	"strings"
	"testing"

	"rafda"
	"rafda/internal/corpus"
	"rafda/internal/minijava"
	"rafda/internal/transform"
)

// benchCalls drives b.N calls from parallel goroutines and reports
// aggregate throughput.
func benchCalls(b *testing.B, parallel int, call func(g int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	d, err := drive(load{parallel: parallel, calls: b.N}, call)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(d.perSec(), "calls/s")
}

// BenchmarkE1_TransformFigureX measures the §2 transformation pipeline
// on the paper's sample class (Figures 2→3,4,5): interface extraction,
// property-isation, static→singleton conversion, factory generation and
// reference rewriting.
func BenchmarkE1_TransformFigureX(b *testing.B) {
	prog, err := minijava.Compile(figureXSource)
	if err != nil {
		b.Fatal(err)
	}
	benchCalls(b, 1, func(int) error {
		_, err := transform.Transform(prog, transform.Options{})
		return err
	})
}

// BenchmarkE1_TransformCorpus500 measures transformer throughput on a
// 500-class synthetic library.
func BenchmarkE1_TransformCorpus500(b *testing.B) {
	p := corpus.JDKLike()
	p.Classes = 500
	prog := corpus.Generate(p)
	benchCalls(b, 1, func(int) error {
		_, err := transform.Transform(prog, transform.Options{})
		return err
	})
}

// BenchmarkE2_Transformability runs the §2.4 substitutability analysis
// over the full 8,200-class JDK-like corpus and reports the
// non-transformable percentage (paper: "about 40%").
func BenchmarkE2_Transformability(b *testing.B) {
	prog := corpus.Generate(corpus.JDKLike())
	var pct float64
	benchCalls(b, 1, func(int) error {
		pct = transform.Analyze(prog).Stats().Percent()
		return nil
	})
	b.ReportMetric(pct, "%nontransformable")
}

// BenchmarkE2_NativeSensitivity sweeps native-method density, the
// paper's stated driver ("this percentage would increase if the user
// code contains native methods").
func BenchmarkE2_NativeSensitivity(b *testing.B) {
	for _, nat := range nativeDensities {
		b.Run(fmt.Sprintf("coreNative=%d", nat), func(b *testing.B) {
			prog := nativeCorpus(nat)
			var pct float64
			benchCalls(b, 1, func(int) error {
				pct = transform.Analyze(prog).Stats().Percent()
				return nil
			})
			b.ReportMetric(pct, "%nontransformable")
		})
	}
}

// BenchmarkE3_Figure1 measures one interaction with the shared C
// instance in every deployment the paper contrasts: the untransformed
// original, the transformed program with C local, and the transformed
// program with C remote behind each proxy protocol.
func BenchmarkE3_Figure1(b *testing.B) {
	for _, mode := range figure1Modes {
		name := mode
		if mode != "original" && mode != "transformed-local" {
			name = "remote-" + mode
		}
		b.Run(name, func(b *testing.B) {
			use, closeAll, err := figure1(mode)
			if err != nil {
				b.Fatal(err)
			}
			defer closeAll()
			benchCalls(b, 1, func(int) error { return use() })
		})
	}
}

// BenchmarkE4_InterpositionOverhead quantifies §3's comparison: the
// untransformed program, the RAFDA-transformed program (all-local), and
// the wrapper-per-object baseline the paper says has "significantly
// greater overhead".
func BenchmarkE4_InterpositionOverhead(b *testing.B) {
	for _, variant := range e4Variants {
		b.Run(variant, func(b *testing.B) {
			run, err := e4Machine(hotLoopSource, variant)
			if err != nil {
				b.Fatal(err)
			}
			benchCalls(b, 1, func(int) error { return run() })
		})
	}
}

// BenchmarkE4_Creation is InterpositionOverhead for object creation: one
// op makes hotLoopIters two-int objects, through the factory's make() in
// the transformed program.  allocs/op and B/op over hotLoopIters are the
// per-object figures EXPERIMENTS.md E4 records.
func BenchmarkE4_Creation(b *testing.B) {
	for _, variant := range e4Variants {
		b.Run(variant, func(b *testing.B) {
			run, err := e4Machine(creationSource, variant)
			if err != nil {
				b.Fatal(err)
			}
			benchCalls(b, 1, func(int) error { return run() })
		})
	}
}

// BenchmarkE4_PropertyAblation isolates the cost of property-isation
// (field access through get_/set_ instead of direct access) — the
// design decision DESIGN.md §5 calls out.
func BenchmarkE4_PropertyAblation(b *testing.B) {
	const direct = `
class Cell { int v; Cell(int v) { this.v = v; } }
class Driver {
    static int run(int n) {
        Cell c = new Cell(0);
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) { c.v = c.v + 1; acc = c.v; }
        return acc;
    }
}
class Main { static void main() {} }`
	for _, v := range []struct{ name, variant string }{{"direct-field", "original"}, {"properties", "rafda-local"}} {
		b.Run(v.name, func(b *testing.B) {
			run, err := e4Machine(direct, v.variant)
			if err != nil {
				b.Fatal(err)
			}
			benchCalls(b, 1, func(int) error { return run() })
		})
	}
}

// benchEcho measures method(args) answering want on a fresh EchoSvc
// pair over proto on net.
func benchEcho(b *testing.B, proto string, net rafda.NetProfile, parallel int, want any, method string, args ...any) {
	client, ref, closeAll, err := echoPair(proto, net)
	if err != nil {
		b.Fatal(err)
	}
	defer closeAll()
	benchCalls(b, parallel, func(int) error {
		got, err := client.CallOn(ref, method, args...)
		if err == nil && got != want {
			err = fmt.Errorf("%s answered %v, want %v", method, got, want)
		}
		return err
	})
}

// BenchmarkE5_Protocols compares the proxy protocol families the paper
// names (§1: "SOAP-based, RMI-based, ...") on small-argument calls and
// on growing payloads over the loopback.
func BenchmarkE5_Protocols(b *testing.B) {
	for _, proto := range allProtocols {
		b.Run(proto+"/add", func(b *testing.B) { benchEcho(b, proto, rafda.NetProfile{}, 1, int64(42), "add", 20, 22) })
		for _, size := range []int{16, 1024, 16384} {
			b.Run(fmt.Sprintf("%s/echo%dB", proto, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				payload := strings.Repeat("x", size)
				benchEcho(b, proto, rafda.NetProfile{}, 1, payload, "echo", payload)
			})
		}
	}
}

// BenchmarkE5_WANLatencyDominates repeats the small-call comparison
// under simulated WAN conditions (20 ms one-way): propagation delay
// swamps encoding differences, so the protocol choice stops mattering —
// the crossover the shape analysis in EXPERIMENTS.md discusses.
func BenchmarkE5_WANLatencyDominates(b *testing.B) {
	for _, proto := range []string{"rrp", "soap"} {
		b.Run(proto, func(b *testing.B) { benchEcho(b, proto, rafda.NetWAN, 1, int64(3), "add", 1, 2) })
	}
}

// BenchmarkE6_Redistribution measures the §4 dynamic-reconfiguration
// mechanisms: flipping creation policy at run time, and migrating a
// live object between nodes (including the in-place proxy morph).
func BenchmarkE6_Redistribution(b *testing.B) {
	b.Run("policy-flip", func(b *testing.B) {
		tr, err := transformed(figure1Source)
		if err != nil {
			b.Fatal(err)
		}
		client, server, closeAll, err := remotePair(tr, "rrp", "", rafda.NetProfile{})
		if err != nil {
			b.Fatal(err)
		}
		defer closeAll()
		targets := []string{"local", server.Endpoint("rrp")}
		var flips int
		benchCalls(b, 1, func(int) error {
			flips++
			if err := client.PlaceClass("C", targets[flips%2]); err != nil {
				return err
			}
			_, err := client.Call("Setup", "make")
			return err
		})
	})

	b.Run("migrate-roundtrip", func(b *testing.B) {
		nodes, eps, held, closeAll, err := e6Nodes()
		if err != nil {
			b.Fatal(err)
		}
		defer closeAll()
		var moves int
		benchCalls(b, 1, func(int) error {
			moves++
			return nodes[0].Migrate(held, eps[moves%2])
		})
		if got, err := nodes[0].Call("Holder", "poke"); err != nil || got.(int64) != 6 {
			b.Fatalf("state lost after %d migrations: %v %v", b.N, got, err)
		}
	})

	b.Run("post-migration-call", func(b *testing.B) {
		nodes, eps, held, closeAll, err := e6Nodes()
		if err != nil {
			b.Fatal(err)
		}
		defer closeAll()
		if err := nodes[0].Migrate(held, eps[1]); err != nil {
			b.Fatal(err)
		}
		benchCalls(b, 1, func(int) error {
			if got, err := nodes[0].Call("Holder", "poke"); err != nil || got.(int64) != 6 {
				return fmt.Errorf("poke: %v %v", got, err)
			}
			return nil
		})
	})
}

// BenchmarkE8_IntraNodeParallelism measures what the sharded VM lock
// buys INSIDE one node: concurrent invocations (the node CallOn path —
// the same gate discipline inbound dispatch uses) against distinct vs a
// shared target object, under the sharded design and under the seed's
// coarse-lock regime, reproduced by one benchmark-side lock around every
// call.  Each call blocks 200µs inside the VM, the component a coarse
// lock cannot overlap no matter the core count.  e8Measure fails the
// run if any update was lost.
func BenchmarkE8_IntraNodeParallelism(b *testing.B) {
	for _, mode := range []string{"coarse", "sharded"} {
		for _, target := range []string{"distinct", "shared"} {
			for _, parallel := range []int{1, 8, 64} {
				b.Run(fmt.Sprintf("%s/%s/p%d", mode, target, parallel), func(b *testing.B) {
					objects := 1
					if target == "distinct" {
						objects = parallel
					}
					n, refs, err := e8Node(objects)
					if err != nil {
						b.Fatal(err)
					}
					defer n.Close()
					b.ReportAllocs()
					b.ResetTimer()
					d, err := e8Measure(n, refs, mode == "coarse", load{parallel: parallel, calls: b.N})
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(d.perSec(), "calls/s")
				})
			}
		}
	}
}

// BenchmarkE9_AdaptivePlacement measures the three placements of E9's
// hot object over the simulated LAN: manually optimal (local from the
// start), statically mis-placed (every call pays the remote round trip
// forever), and adaptive (mis-placed start, telemetry-driven migration,
// then the converged steady state is measured).  The adaptive row must
// land near the manual-optimal row — that is the closed loop's whole
// claim.
func BenchmarkE9_AdaptivePlacement(b *testing.B) {
	bench := func(b *testing.B, driver *rafda.Node) {
		made, err := driver.Call("Setup", "make")
		if err != nil {
			b.Fatal(err)
		}
		benchCalls(b, 1, func(int) error {
			_, err := driver.CallOn(made.(*rafda.Ref), "bump", 1)
			return err
		})
	}
	b.Run("manual-optimal", func(b *testing.B) {
		driver, _, _, closeAll, err := e9Nodes()
		if err != nil {
			b.Fatal(err)
		}
		defer closeAll()
		bench(b, driver)
	})
	b.Run("misplaced-static", func(b *testing.B) {
		driver, _, epServer, closeAll, err := e9Nodes()
		if err != nil {
			b.Fatal(err)
		}
		defer closeAll()
		if err := driver.PlaceClass("Counter", epServer); err != nil {
			b.Fatal(err)
		}
		bench(b, driver)
	})
	b.Run("adaptive-converged", func(b *testing.B) {
		driver, server, epServer, closeAll, err := e9Nodes()
		if err != nil {
			b.Fatal(err)
		}
		defer closeAll()
		cfg := rafda.AdaptConfig{Threshold: e9Threshold, MinCalls: 10, Confirm: e9Confirm, Budget: e9Budget}
		adServer := server.NewAdapter(cfg)
		driver.NewAdapter(cfg) // telemetry on, symmetric deployment
		if err := driver.PlaceClass("Counter", epServer); err != nil {
			b.Fatal(err)
		}
		made, err := driver.Call("Setup", "make")
		if err != nil {
			b.Fatal(err)
		}
		ref := made.(*rafda.Ref)
		// Converge deterministically: traffic windows + manual ticks
		// until the migration decision executes.
		converged := false
		for w := 0; w < 10 && !converged; w++ {
			for i := 0; i < 30; i++ {
				if _, err := driver.CallOn(ref, "bump", 1); err != nil {
					b.Fatal(err)
				}
			}
			adServer.Tick()
			for _, e := range server.Events() {
				converged = converged || e.Adapt != nil && e.Adapt.Kind.String() == "migrate" && e.Adapt.Executed
			}
		}
		if !converged {
			b.Fatal("adapter never migrated the hot object")
		}
		benchCalls(b, 1, func(int) error {
			_, err := driver.CallOn(ref, "bump", 1)
			return err
		})
	})
}
