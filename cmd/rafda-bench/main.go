// Command rafda-bench regenerates the paper's figures and claims as
// printed tables (the same experiments bench_test.go measures with
// testing.B, in report form):
//
//	rafda-bench -exp e1   Figures 2-5: transformed listings for class X
//	rafda-bench -exp e2   §2.4 transformability over the JDK-like corpus
//	rafda-bench -exp e3   Figure 1 scenario: local vs distributed
//	rafda-bench -exp e4   §3 wrapper-vs-transformation overhead
//	rafda-bench -exp e5   proxy protocol comparison
//	rafda-bench -exp e6   §4 dynamic redistribution
//	rafda-bench -exp e7   RRP concurrency throughput: multiplexed vs a
//	                      driver-side lock around each call (writes
//	                      BENCH_E7.json)
//	rafda-bench -exp e8   intra-node parallelism: per-object gates vs a
//	                      driver-side lock around each call (writes
//	                      BENCH_E8.json)
//	rafda-bench -exp e9   adaptive placement: a mis-placed hot object is
//	                      migrated home by the telemetry-driven engine with
//	                      zero manual calls (writes BENCH_E9.json)
//	rafda-bench -exp e10  cluster coordination: a 3-node cluster converges a
//	                      mis-placed hot object via a multi-hop migration —
//	                      proposed by a node that neither hosts nor calls it
//	                      — with zero manual calls (writes BENCH_E10.json)
//	rafda-bench -exp e11  pooled-transport saturation: per-endpoint pool
//	                      width 1→8 at parallelism 64 vs the single-socket
//	                      ceiling (writes BENCH_E11.json)
//	rafda-bench -exp e12  exactly-once under injected faults: seeded frame
//	                      duplication/drop/kill chaos over the adaptive
//	                      workload; counter == acked calls, zero create
//	                      orphans, bounded windows (writes BENCH_E12.json)
//	rafda-bench -exp e13  read replication: a read-hot object replicated to
//	                      its two caller nodes; reads route to the local
//	                      copies while writes serialise through the
//	                      lease-holding primary (writes BENCH_E13.json)
//	rafda-bench -exp e14  tracing overhead bound + chaos trace audit
//	                      (writes BENCH_E14.json)
//	rafda-bench -exp e15  open-loop latency SLO: Poisson arrivals over a
//	                      Zipf object population with per-tenant deadlined
//	                      calls, node churn + link degradation mid-run;
//	                      exact clean-phase p50/p99/p999 per tenant vs the
//	                      configured SLO (writes BENCH_E15.json)
//	rafda-bench -exp all  everything
//
// e7..e15 write their BENCH_E<N>.json record into the -out directory
// (default "."; -out "" writes nothing).
//
// The -adapt-* flags tune e9's engine (window, threshold, min calls,
// confirm windows, migration budget); the -e10-* flags tune e10's
// cluster (heartbeat, phase length, parallelism, acceptance ratio);
// the -e12-* flags tune e12's fault schedules (seed matrix, per-mille
// rates, phase length, dedup window cap); the -e13-* flags tune e13's
// replication run (heartbeat, phase length, per-reader parallelism,
// acceptance lift); the -e15-* flags tune e15's open-loop run (arrival
// rate, phase lengths, object/tenant counts, Zipf skew, per-call
// deadline, SLO bar); -pool overrides the connection pool width of
// e9/e10/e12/e13's nodes.
//
// -gate switches to the CI perf-regression comparator instead of
// running experiments: it compares freshly generated records (in
// -gate-fresh) against the committed BENCH_*.json (in -gate-committed)
// and exits non-zero when an experiment's key row regressed more than
// -gate-tolerance (the stable tiers e7/e11/e13/e14 are always held to
// at most 20%):
//
//	rafda-bench -gate e7,e9,e10,e11,e12,e13,e14,e15 -gate-fresh .gate
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafda"
	"rafda/internal/corpus"
	"rafda/internal/minijava"
	"rafda/internal/netsim"
	"rafda/internal/node"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
	"rafda/internal/wrapper"
)

const figureXSource = `
class Y {
    static int K = 17;
    Y() {}
    int n(long j) { return (int) j + 1; }
}
class Z {
    int seed;
    Z(int seed) { this.seed = seed; }
    int q(int i) { return seed + i; }
}
class X {
    private Y y;
    X(Y y) { this.y = y; }
    protected int m(long j) { return y.n(j); }
    static final Z z = new Z(Y.K);
    static int p(int i) { return z.q(i); }
}
class Main {
    static void main() {
        X x = new X(new Y());
        sys.System.println("m=" + x.m(41));
        sys.System.println("p=" + X.p(3));
    }
}`

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e15 or all)")
	out := flag.String("out", ".", "directory the experiments write their BENCH_E<N>.json records into (empty: write nothing)")
	pool := flag.Int("pool", 0, "connection pool width of e9/e10's nodes (0: GOMAXPROCS, capped at 8)")
	gate := flag.String("gate", "", "run the perf-regression gate over these experiments (e.g. \"e7,e9,e10,e11\") instead of benchmarks")
	gateCommitted := flag.String("gate-committed", ".", "directory holding the committed BENCH_*.json records")
	gateFresh := flag.String("gate-fresh", ".gate", "directory holding the freshly generated BENCH_*.json records")
	gateTol := flag.Float64("gate-tolerance", 0.30, "fractional regression of a key row the gate tolerates")
	e9cfg := e9Config{}
	flag.DurationVar(&e9cfg.window, "adapt-window", 75*time.Millisecond, "e9: adapter evaluation window")
	flag.Float64Var(&e9cfg.threshold, "adapt-threshold", 0.6, "e9: dominant-caller share needed to act")
	flag.IntVar(&e9cfg.minCalls, "adapt-min-calls", 24, "e9: minimum calls per window before a rule fires")
	flag.IntVar(&e9cfg.confirm, "adapt-confirm", 2, "e9: consecutive windows a proposal must recur")
	flag.IntVar(&e9cfg.budget, "adapt-budget", 2, "e9: migration budget per object per budget horizon")
	flag.DurationVar(&e9cfg.phase, "e9-seconds", 3*time.Second, "e9: duration of each measured phase")
	flag.IntVar(&e9cfg.parallel, "e9-parallel", 8, "e9: concurrent caller goroutines")
	flag.Float64Var(&e9cfg.minRatio, "e9-min-ratio", 0.8, "e9: required converged/optimal throughput ratio")
	e10cfg := e10Config{}
	flag.DurationVar(&e10cfg.heartbeat, "e10-heartbeat", 50*time.Millisecond, "e10: cluster gossip period")
	flag.DurationVar(&e10cfg.phase, "e10-seconds", 3*time.Second, "e10: duration of each measured phase")
	flag.IntVar(&e10cfg.parallel, "e10-parallel", 8, "e10: concurrent caller goroutines")
	flag.Float64Var(&e10cfg.minRatio, "e10-min-ratio", 0.8, "e10: required converged/optimal throughput ratio")
	e11cfg := e11Config{}
	flag.IntVar(&e11cfg.parallel, "e11-parallel", 64, "e11: concurrent caller goroutines")
	flag.Float64Var(&e11cfg.minLift, "e11-min-lift", 0, "e11: required pooled/single-socket calls/s lift (0: report only; needs real cores)")
	e12cfg := e12Config{}
	flag.DurationVar(&e12cfg.phase, "e12-seconds", 3*time.Second, "e12: invoke-chaos duration per seed")
	flag.IntVar(&e12cfg.parallel, "e12-parallel", 8, "e12: concurrent caller goroutines")
	flag.StringVar(&e12cfg.seeds, "e12-seeds", "1,2,3", "e12: comma-separated fault-schedule seeds")
	flag.IntVar(&e12cfg.dup, "e12-dup-permille", 30, "e12: per-mille frames delivered twice")
	flag.IntVar(&e12cfg.drop, "e12-drop-permille", 3, "e12: per-mille frames swallowed (link then torn down)")
	flag.IntVar(&e12cfg.kill, "e12-kill-permille", 3, "e12: per-mille frames killed mid-flight")
	flag.IntVar(&e12cfg.window, "e12-window", 256, "e12: per-caller dedup window cap under audit")
	flag.IntVar(&e12cfg.creates, "e12-creates", 150, "e12: phase-B chaos creates for the orphan audit")
	e13cfg := e13Config{}
	flag.DurationVar(&e13cfg.heartbeat, "e13-heartbeat", 50*time.Millisecond, "e13: cluster gossip period")
	flag.DurationVar(&e13cfg.phase, "e13-seconds", 3*time.Second, "e13: duration of each measured phase")
	flag.IntVar(&e13cfg.parallel, "e13-parallel", 4, "e13: concurrent caller goroutines per reader node")
	flag.Float64Var(&e13cfg.minLift, "e13-min-lift", 2.0, "e13: required replicated/single-home reads/s lift")
	e14cfg := e14Config{}
	flag.IntVar(&e14cfg.rounds, "e14-rounds", 5, "e14: alternating overhead rounds per arm (0: chaos trace audit only)")
	flag.IntVar(&e14cfg.calls, "e14-calls", 12000, "e14: echo calls per overhead round")
	flag.IntVar(&e14cfg.parallel, "e14-parallel", 64, "e14: concurrent caller goroutines")
	flag.Float64Var(&e14cfg.maxOverhead, "e14-max-overhead", 0.05, "e14: tolerated traced-vs-untraced throughput loss fraction")
	flag.StringVar(&e14cfg.seeds, "e14-seeds", "1,2", "e14: comma-separated audit fault-schedule seeds")
	flag.IntVar(&e14cfg.auditCalls, "e14-audit-calls", 1200, "e14: acked calls per audit seed (must fit the span ring)")
	flag.IntVar(&e14cfg.dup, "e14-dup-permille", 30, "e14: per-mille frames delivered twice during the audit")
	flag.IntVar(&e14cfg.drop, "e14-drop-permille", 3, "e14: per-mille frames swallowed during the audit")
	flag.IntVar(&e14cfg.kill, "e14-kill-permille", 3, "e14: per-mille frames killed mid-flight during the audit")
	flag.IntVar(&e14cfg.traceSpans, "e14-trace-spans", 1<<15, "e14: per-node flight-recorder ring capacity under audit")
	e15cfg := e15Config{}
	flag.Float64Var(&e15cfg.rate, "e15-rate", 1200, "e15: offered open-loop arrival rate, calls/s")
	flag.DurationVar(&e15cfg.warm, "e15-warm", 2*time.Second, "e15: warm (clean) phase length")
	flag.DurationVar(&e15cfg.churn, "e15-churn", 1500*time.Millisecond, "e15: churn window length (node death + link degradation)")
	flag.DurationVar(&e15cfg.recover, "e15-recover", 2*time.Second, "e15: recovery (clean) phase length")
	flag.IntVar(&e15cfg.objects, "e15-objects", 2000, "e15: object population size")
	flag.IntVar(&e15cfg.tenants, "e15-tenants", 20, "e15: tenant identities cycling through arrivals")
	flag.Float64Var(&e15cfg.zipfS, "e15-zipf", 1.1, "e15: Zipf skew of object popularity (>1)")
	flag.Uint64Var(&e15cfg.seed, "e15-seed", 1, "e15: arrival/popularity schedule seed")
	flag.DurationVar(&e15cfg.deadline, "e15-deadline", 250*time.Millisecond, "e15: per-call wire deadline budget")
	flag.DurationVar(&e15cfg.sloP99, "e15-slo-p99", 100*time.Millisecond, "e15: per-tenant clean-phase p99 SLO bar")
	flag.Float64Var(&e15cfg.maxErr, "e15-max-err", 0.01, "e15: tolerated clean-phase error fraction")
	flag.StringVar(&e15cfg.arm, "e15-arm", "both", "e15: arm(s) to run: main (churn/SLO), shed (proactive shedding at saturation), or both")
	flag.Float64Var(&e15cfg.shedFactor, "e15-shed-factor", 3.0, "e15: shed-arm offered load as a multiple of measured capacity (the gate needs >= 3)")
	flag.Parse()
	if *gate != "" {
		if err := runGate(strings.Split(*gate, ","), *gateCommitted, *gateFresh, *gateTol); err != nil {
			fmt.Fprintf(os.Stderr, "gate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	e9cfg.pool = *pool
	e10cfg.pool = *pool
	e12cfg.pool = *pool
	e13cfg.pool = *pool
	e14cfg.pool = *pool
	run := func(id string, f func() error) {
		if *exp != "all" && *exp != id {
			return
		}
		fmt.Printf("\n================ %s ================\n", strings.ToUpper(id))
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
	run("e1", e1)
	run("e2", e2)
	run("e3", e3)
	run("e4", e4)
	run("e5", e5)
	run("e6", e6)
	run("e7", func() error { return e7(*out) })
	run("e8", func() error { return e8(*out) })
	run("e9", func() error { return e9(e9cfg, *out) })
	run("e10", func() error { return e10(e10cfg, *out) })
	run("e11", func() error { return e11(e11cfg, *out) })
	run("e12", func() error { return e12(e12cfg, *out) })
	run("e13", func() error { return e13(e13cfg, *out) })
	run("e14", func() error { return e14(e14cfg, *out) })
	run("e15", func() error { return e15(e15cfg, *out) })
}

// e1 prints the generated family for the paper's Figure 2 class X,
// reproducing the listings of Figures 3, 4 and 5.
func e1() error {
	prog, err := rafda.CompileString(figureXSource)
	if err != nil {
		return err
	}
	tr, err := prog.Transform(rafda.WithProtocols("soap", "rrp"))
	if err != nil {
		return err
	}
	tp := tr.Program()
	fmt.Println("Figure 3 — instance members transformation:")
	for _, c := range []string{"X_O_Int", "X_O_Local", "X_O_Proxy_soap"} {
		txt, err := tp.Disassemble(c, false)
		if err != nil {
			return err
		}
		fmt.Println(txt)
	}
	fmt.Println("Figure 4 — static members transformation:")
	for _, c := range []string{"X_C_Int", "X_C_Local", "X_C_Proxy_rrp"} {
		txt, err := tp.Disassemble(c, false)
		if err != nil {
			return err
		}
		fmt.Println(txt)
	}
	fmt.Println("Figure 5 — factories:")
	for _, c := range []string{"X_O_Factory", "X_C_Factory"} {
		txt, err := tp.Disassemble(c, false)
		if err != nil {
			return err
		}
		fmt.Println(txt)
	}
	return nil
}

// e2 reproduces §2.4: the transformability statistic over the 8,200
// class JDK-like corpus, plus the native-density sensitivity the paper
// predicts.
func e2() error {
	prog := corpus.Generate(corpus.JDKLike())
	a := transform.Analyze(prog)
	fmt.Println("paper: \"About 40% of the 8,200 classes and interfaces in JDK 1.4.1 cannot be transformed.\"")
	fmt.Println()
	fmt.Print(a.Report())

	fmt.Println("\nsensitivity to native-method density (paper: \"this percentage would increase\"):")
	fmt.Println("  core-native/1000   non-transformable")
	for _, nat := range []int{50, 150, 300, 500} {
		p := corpus.JDKLike()
		p.Classes = 2000
		p.CoreNativeFrac = nat
		pct := transform.Analyze(corpus.Generate(p)).Stats().Percent()
		fmt.Printf("  %16d   %6.1f%%\n", nat, pct)
	}
	return nil
}

const figure1Bench = `
class C {
    int state;
    C(int s) { this.state = s; }
    int bump() { state = state + 1; return state; }
}
class A {
    C c;
    A(C c) { this.c = c; }
    int use() { return c.bump(); }
}
class Setup {
    static A make() { return new A(new C(0)); }
}
class Main { static void main() {} }`

func timeCalls(n int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// e3 reproduces the Figure 1 scenario: the same interaction measured in
// each deployment.
func e3() error {
	const iters = 300
	fmt.Println("Figure 1 scenario: A and B share C; one use() = one shared-instance interaction")
	fmt.Println("  deployment            per-call")

	// Original, untransformed.
	{
		prog, err := minijava.Compile(figure1Bench)
		if err != nil {
			return err
		}
		machine := vm.MustNew(prog)
		a, err := machine.Invoke("Setup", "make", vm.Value{}, nil)
		if err != nil {
			return err
		}
		d, err := timeCalls(iters, func() error {
			_, err := machine.Invoke(a.O.ClassName(), "use", a, nil)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s  %10v\n", "original", d.Round(time.Nanosecond))
	}

	// Transformed, every placement.
	for _, mode := range []string{"local", "inproc", "rrp", "soap", "json"} {
		prog, err := rafda.CompileString(figure1Bench)
		if err != nil {
			return err
		}
		tr, err := prog.Transform(rafda.WithProtocols("inproc", "rrp", "soap", "json"))
		if err != nil {
			return err
		}
		client, err := tr.NewNode(rafda.NodeConfig{Name: "client"})
		if err != nil {
			return err
		}
		var server *rafda.Node
		if mode != "local" {
			server, err = tr.NewNode(rafda.NodeConfig{Name: "server"})
			if err != nil {
				return err
			}
			ep, err := server.Serve(mode, "")
			if err != nil {
				return err
			}
			if _, err := client.Serve(mode, ""); err != nil {
				return err
			}
			if err := client.PlaceClass("C", ep); err != nil {
				return err
			}
		}
		aref, err := client.Call("Setup", "make")
		if err != nil {
			return err
		}
		ref := aref.(*rafda.Ref)
		d, err := timeCalls(iters, func() error {
			_, err := client.CallOn(ref, "use")
			return err
		})
		if err != nil {
			return err
		}
		label := "transformed-" + mode
		if mode != "local" {
			label = "C remote via " + mode
		}
		fmt.Printf("  %-20s  %10v\n", label, d.Round(time.Nanosecond))
		client.Close()
		if server != nil {
			server.Close()
		}
	}
	fmt.Println("\nsemantic equivalence: verified by the test suite (identical output in every deployment)")
	return nil
}

const hotLoopSource = `
class Hot {
    int v;
    Hot(int v) { this.v = v; }
    int step(int x) { v = v + x; return v; }
}
class Driver {
    static int run(int n) {
        Hot h = new Hot(0);
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            acc = h.step(1);
        }
        return acc;
    }
}
class Main { static void main() {} }`

// e4 reproduces §3: interposition overhead of the RAFDA transformation
// vs the wrapper-per-object baseline.
func e4() error {
	const loop = 1000
	const reps = 50
	measure := func(machine *vm.VM, class string) (time.Duration, error) {
		args := []vm.Value{vm.IntV(loop)}
		return timeCalls(reps, func() error {
			res, err := machine.Invoke(class, "run", vm.Value{}, args)
			if err == nil && res.I != loop {
				return fmt.Errorf("bad result %d", res.I)
			}
			return err
		})
	}

	prog1, err := minijava.Compile(hotLoopSource)
	if err != nil {
		return err
	}
	orig, err := measure(vm.MustNew(prog1), "Driver")
	if err != nil {
		return err
	}

	prog2, err := minijava.Compile(hotLoopSource)
	if err != nil {
		return err
	}
	res, err := transform.Transform(prog2, transform.Options{Protocols: []string{"rrp"}})
	if err != nil {
		return err
	}
	m2 := vm.MustNew(res.Program)
	transform.BindLocal(m2, res)
	rafdaT, err := measure(m2, transform.CFactory("Driver"))
	if err != nil {
		return err
	}

	prog3, err := minijava.Compile(hotLoopSource)
	if err != nil {
		return err
	}
	wres, err := wrapper.Transform(prog3)
	if err != nil {
		return err
	}
	wrapT, err := measure(vm.MustNew(wres.Program), "Driver")
	if err != nil {
		return err
	}

	fmt.Printf("workload: %d method calls + field updates per run (§3 comparison)\n\n", loop)
	fmt.Printf("  %-22s %12s %10s\n", "variant", "per-run", "vs orig")
	fmt.Printf("  %-22s %12v %9.2fx\n", "original", orig.Round(time.Microsecond), 1.0)
	fmt.Printf("  %-22s %12v %9.2fx\n", "rafda (transformed)", rafdaT.Round(time.Microsecond), float64(rafdaT)/float64(orig))
	fmt.Printf("  %-22s %12v %9.2fx\n", "wrapper baseline", wrapT.Round(time.Microsecond), float64(wrapT)/float64(orig))
	fmt.Printf("\npaper: wrappers are \"much simpler ... significantly greater overhead\": wrapper/rafda = %.2fx\n",
		float64(wrapT)/float64(rafdaT))
	return nil
}

const echoSource = `
class EchoSvc {
    string echo(string s) { return s; }
    int add(int a, int b) { return a + b; }
}
class Setup {
    static EchoSvc make() { return new EchoSvc(); }
}
class Main { static void main() {} }`

// e5 compares the proxy protocol families on remote calls.
func e5() error {
	const iters = 200
	fmt.Println("remote call cost by proxy protocol (loopback; E5 in bench_test.go adds WAN)")
	fmt.Printf("  %-8s %12s %14s %14s\n", "proto", "add(i,i)", "echo 1KiB", "echo 16KiB")
	for _, proto := range []string{"inproc", "rrp", "json", "soap"} {
		prog, err := rafda.CompileString(echoSource)
		if err != nil {
			return err
		}
		tr, err := prog.Transform(rafda.WithProtocols("inproc", "rrp", "soap", "json"))
		if err != nil {
			return err
		}
		server, err := tr.NewNode(rafda.NodeConfig{Name: "server"})
		if err != nil {
			return err
		}
		ep, err := server.Serve(proto, "")
		if err != nil {
			return err
		}
		client, err := tr.NewNode(rafda.NodeConfig{Name: "client"})
		if err != nil {
			return err
		}
		if _, err := client.Serve(proto, ""); err != nil {
			return err
		}
		if err := client.PlaceClass("EchoSvc", ep); err != nil {
			return err
		}
		svc, err := client.Call("Setup", "make")
		if err != nil {
			return err
		}
		ref := svc.(*rafda.Ref)

		add, err := timeCalls(iters, func() error {
			_, err := client.CallOn(ref, "add", 1, 2)
			return err
		})
		if err != nil {
			return err
		}
		kb := strings.Repeat("x", 1024)
		e1k, err := timeCalls(iters, func() error {
			_, err := client.CallOn(ref, "echo", kb)
			return err
		})
		if err != nil {
			return err
		}
		kb16 := strings.Repeat("x", 16*1024)
		e16k, err := timeCalls(iters/4, func() error {
			_, err := client.CallOn(ref, "echo", kb16)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s %12v %14v %14v\n", proto,
			add.Round(time.Microsecond), e1k.Round(time.Microsecond), e16k.Round(time.Microsecond))
		client.Close()
		server.Close()
	}
	return nil
}

// e6 reproduces §4's dynamic reconfiguration: policy flips and live
// object migration.
func e6() error {
	src := `
class Bag {
    int a; int b; int c;
    Bag(int a) { this.a = a; this.b = a * 2; this.c = a * 3; }
    int sum() { return a + b + c; }
}
class Holder {
    static Bag held = new Bag(1);
    static int poke() { return held.sum(); }
}
class Main { static void main() {} }`
	prog, err := rafda.CompileString(src)
	if err != nil {
		return err
	}
	tr, err := prog.Transform()
	if err != nil {
		return err
	}
	nodeA, err := tr.NewNode(rafda.NodeConfig{Name: "a"})
	if err != nil {
		return err
	}
	defer nodeA.Close()
	nodeB, err := tr.NewNode(rafda.NodeConfig{Name: "b"})
	if err != nil {
		return err
	}
	defer nodeB.Close()
	epA, err := nodeA.Serve("rrp", "")
	if err != nil {
		return err
	}
	epB, err := nodeB.Serve("rrp", "")
	if err != nil {
		return err
	}

	before, err := timeCalls(200, func() error {
		_, err := nodeA.Call("Holder", "poke")
		return err
	})
	if err != nil {
		return err
	}

	href, err := nodeA.ReadStatic("Holder", "held")
	if err != nil {
		return err
	}
	ref := href.(*rafda.Ref)
	migStart := time.Now()
	if err := nodeA.Migrate(ref, epB); err != nil {
		return err
	}
	migOut := time.Since(migStart)

	after, err := timeCalls(200, func() error {
		_, err := nodeA.Call("Holder", "poke")
		return err
	})
	if err != nil {
		return err
	}

	migStart = time.Now()
	if err := nodeA.Migrate(ref, epA); err != nil {
		return err
	}
	migBack := time.Since(migStart)
	restored, err := timeCalls(200, func() error {
		_, err := nodeA.Call("Holder", "poke")
		return err
	})
	if err != nil {
		return err
	}

	fmt.Println("live object migration (Figure 1's Cp substitution on a running object):")
	fmt.Printf("  %-34s %12v\n", "per-call, object local", before.Round(time.Microsecond))
	fmt.Printf("  %-34s %12v\n", "migrate out (switch-over)", migOut.Round(time.Microsecond))
	fmt.Printf("  %-34s %12v\n", "per-call, object remote", after.Round(time.Microsecond))
	fmt.Printf("  %-34s %12v\n", "migrate back (via home pull-back)", migBack.Round(time.Microsecond))
	fmt.Printf("  %-34s %12v\n", "per-call, after return", restored.Round(time.Microsecond))
	fmt.Printf("\nmigrations seen: nodeB in=%d, nodeA in=%d; state preserved throughout (sum stayed 6)\n",
		nodeB.Stats().MigrationsIn, nodeA.Stats().MigrationsIn)
	return nil
}

// E7Result is one row of the machine-readable concurrency-throughput
// record, tracked across PRs in BENCH_E7.json.
type E7Result struct {
	Protocol    string  `json:"protocol"`
	Network     string  `json:"network"`
	Mode        string  `json:"mode"`
	Parallelism int     `json:"parallelism"`
	Calls       int     `json:"calls"`
	CallsPerSec float64 `json:"calls_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// E7Report is the top-level BENCH_E7.json document.
type E7Report struct {
	Experiment  string     `json:"experiment"`
	Description string     `json:"description"`
	Timestamp   string     `json:"timestamp"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	Results     []E7Result `json:"results"`
}

// measureThroughput runs `calls` echo calls spread over `parallel`
// goroutines against client and reports aggregate throughput and
// allocations per call.  lockstep is the baseline arm: one lock held
// around each call, so at most one is in flight on the connection — what
// the transport did before it multiplexed.
func measureThroughput(client transport.Client, lockstep bool, parallel, calls int) (E7Result, error) {
	var oneAtATime sync.Mutex
	req := &wire.Request{ID: 1, Op: wire.OpInvoke, GUID: "g", Method: "add",
		Args: []wire.Value{{Kind: wire.KInt, Int: 20}, {Kind: wire.KInt, Int: 22}}}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(calls) {
				if lockstep {
					oneAtATime.Lock()
				}
				resp, err := client.Call(req)
				if lockstep {
					oneAtATime.Unlock()
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.Result.Int != 42 {
					errs <- fmt.Errorf("bad echo %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	select {
	case err := <-errs:
		return E7Result{}, err
	default:
	}
	return E7Result{
		Protocol:    "rrp",
		Parallelism: parallel,
		Calls:       calls,
		CallsPerSec: float64(calls) / elapsed.Seconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(calls),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(calls),
	}, nil
}

// e7 measures RRP node-to-node throughput under concurrency: the
// multiplexed transport vs the lock-step baseline, at parallelism 1, 8
// and 64, on the raw loopback and under simulated LAN conditions.  It
// prints the comparison and writes the machine-readable record so the
// perf trajectory is tracked across PRs.
func e7(out string) error {
	echo := func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 42}}
	}
	networks := []struct {
		name    string
		profile netsim.Profile
	}{
		{"loopback", netsim.Profile{}},
		{"lan", netsim.Profile{Latency: 100 * time.Microsecond, BandwidthBps: 1e9, Seed: 1}},
	}
	report := E7Report{
		Experiment:  "e7",
		Description: "RRP concurrency throughput: multiplexed transport vs lock-step baseline, echo workload",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	fmt.Println("concurrent echo calls over one shared RRP connection")
	fmt.Printf("  %-9s %-12s %3s %12s %12s %10s\n", "network", "mode", "p", "calls/s", "ns/op", "allocs/op")
	speedup := map[string]float64{}
	for _, nw := range networks {
		tr := transport.NewRRP(transport.Options{Profile: nw.profile})
		srv, err := tr.Listen("", echo)
		if err != nil {
			return err
		}
		for _, mode := range []string{"serialized", "multiplexed"} {
			for _, parallel := range []int{1, 8, 64} {
				client, err := tr.Dial(srv.Endpoint())
				if err != nil {
					srv.Close()
					return err
				}
				lockstep := mode == "serialized"
				calls := 4000
				if nw.name == "lan" && (lockstep || parallel == 1) {
					calls = 500 // latency-bound: don't wait all day for the baseline
				}
				// Warm up connections and pools outside the measurement.
				if _, err := measureThroughput(client, lockstep, parallel, 50); err != nil {
					client.Close()
					srv.Close()
					return err
				}
				res, err := measureThroughput(client, lockstep, parallel, calls)
				client.Close()
				if err != nil {
					srv.Close()
					return err
				}
				res.Network = nw.name
				res.Mode = mode
				report.Results = append(report.Results, res)
				speedup[fmt.Sprintf("%s/%s/%d", nw.name, mode, parallel)] = res.CallsPerSec
				fmt.Printf("  %-9s %-12s %3d %12.0f %12.0f %10.1f\n",
					nw.name, mode, parallel, res.CallsPerSec, res.NsPerOp, res.AllocsPerOp)
			}
		}
		srv.Close()
	}
	for _, nw := range networks {
		base := speedup[nw.name+"/serialized/64"]
		mux := speedup[nw.name+"/multiplexed/64"]
		if base > 0 {
			fmt.Printf("\n%s speedup at parallelism 64: %.1fx (multiplexed %0.f vs lock-step %0.f calls/s)\n",
				nw.name, mux/base, mux, base)
		}
	}
	return writeReport(out, "e7", report)
}

// e8Source is the E8 workload (kept in sync with bench_test.go):
// deposit() is pure bytecode, slowDeposit() blocks 200µs between heap
// accesses via the sys.Clock.sleepMicros native — per-call blocking work
// that cannot release the VM because it sits between a field read and a
// field write.
const e8Source = `
class Account {
    int balance;
    Account(int b) { this.balance = b; }
    int deposit(int x) { balance = balance + x; return balance; }
    int slowDeposit(int x) {
        sys.Clock.sleepMicros(200);
        balance = balance + x;
        return balance;
    }
}
class Mk {
    static Account make() { return new Account(0); }
}
class Main { static void main() {} }`

// E8Result is one row of the machine-readable intra-node parallelism
// record, tracked across PRs in BENCH_E8.json.
type E8Result struct {
	Workload    string  `json:"workload"` // cpu | block
	Mode        string  `json:"mode"`     // coarse | sharded
	Target      string  `json:"target"`   // distinct | shared
	Parallelism int     `json:"parallelism"`
	Calls       int     `json:"calls"`
	CallsPerSec float64 `json:"calls_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// E8Report is the top-level BENCH_E8.json document.
type E8Report struct {
	Experiment  string     `json:"experiment"`
	Description string     `json:"description"`
	Timestamp   string     `json:"timestamp"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	Results     []E8Result `json:"results"`
}

// e8Node builds one single node over the E8 workload.
func e8Node() (*node.Node, error) {
	prog, err := minijava.Compile(e8Source)
	if err != nil {
		return nil, err
	}
	res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
	if err != nil {
		return nil, err
	}
	return node.New(node.Config{Name: "e8", Result: res})
}

// e8Measure spreads `calls` CallOn invocations over `parallel`
// goroutines; goroutine g targets refs[g%len(refs)].  The coarse arm is
// the baseline: one driver-side lock held around every call, which is
// what a single VM-wide lock amounts to for calls that never leave the
// node.
func e8Measure(n *node.Node, refs []vm.Value, method string, coarse bool, parallel, calls int) (E8Result, error) {
	var vmLock sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	arg := []vm.Value{vm.IntV(1)}
	start := time.Now()
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ref := refs[g%len(refs)]
			for next.Add(1) <= int64(calls) {
				if coarse {
					vmLock.Lock()
				}
				_, err := n.CallOn(ref, method, arg...)
				if coarse {
					vmLock.Unlock()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return E8Result{}, err
	default:
	}
	return E8Result{
		Parallelism: parallel,
		Calls:       calls,
		CallsPerSec: float64(calls) / elapsed.Seconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(calls),
	}, nil
}

// e8 measures intra-node invocation throughput under concurrency: the
// sharded per-object locking vs one coarse lock around every call, against
// distinct vs one shared target object, at parallelism 1, 8 and 64.
// The "block" workload is the headline (blocking work a coarse lock can
// never overlap); the "cpu" workload shows GOMAXPROCS-bound scaling on
// multicore hosts.  It prints the comparison and writes the
// machine-readable record so the perf trajectory is tracked across PRs.
func e8(out string) error {
	report := E8Report{
		Experiment: "e8",
		Description: "intra-node parallelism: sharded per-object VM locking vs coarse-lock baseline, " +
			"CallOn invocations against distinct vs shared target objects",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	fmt.Printf("concurrent intra-node invocations (GOMAXPROCS=%d)\n", report.GoMaxProcs)
	fmt.Printf("  %-6s %-8s %-9s %3s %12s %12s\n", "work", "mode", "target", "p", "calls/s", "ns/op")
	rate := map[string]float64{}
	for _, wl := range []struct{ name, method string }{{"cpu", "deposit"}, {"block", "slowDeposit"}} {
		for _, mode := range []string{"coarse", "sharded"} {
			coarse := mode == "coarse"
			n, err := e8Node()
			if err != nil {
				return err
			}
			for _, target := range []string{"distinct", "shared"} {
				for _, parallel := range []int{1, 8, 64} {
					objects := 1
					if target == "distinct" {
						objects = parallel
					}
					refs := make([]vm.Value, objects)
					for i := range refs {
						v, err := n.InvokeStatic("Mk", "make")
						if err != nil {
							n.Close()
							return err
						}
						refs[i] = v
					}
					calls := 4000
					if wl.name == "block" {
						// Blocking workload: only sharded+distinct scales,
						// so budget the serial configurations down.
						calls = 300
						if mode == "sharded" && target == "distinct" && parallel > 1 {
							calls = 300 * parallel
							if calls > 3000 {
								calls = 3000
							}
						}
					}
					// Warm-up outside the measurement.
					if _, err := e8Measure(n, refs, wl.method, coarse, parallel, 2*parallel+16); err != nil {
						n.Close()
						return err
					}
					res, err := e8Measure(n, refs, wl.method, coarse, parallel, calls)
					if err != nil {
						n.Close()
						return err
					}
					res.Workload, res.Mode, res.Target = wl.name, mode, target
					report.Results = append(report.Results, res)
					rate[fmt.Sprintf("%s/%s/%s/%d", wl.name, mode, target, parallel)] = res.CallsPerSec
					fmt.Printf("  %-6s %-8s %-9s %3d %12.0f %12.0f\n",
						wl.name, mode, target, parallel, res.CallsPerSec, res.NsPerOp)
				}
			}
			n.Close()
		}
	}
	for _, wl := range []string{"cpu", "block"} {
		base := rate[wl+"/coarse/distinct/64"]
		shard := rate[wl+"/sharded/distinct/64"]
		if base > 0 {
			fmt.Printf("\n%s distinct-objects speedup at parallelism 64: %.1fx (sharded %.0f vs coarse %.0f calls/s)\n",
				wl, shard/base, shard, base)
		}
		sb := rate[wl+"/coarse/shared/64"]
		ss := rate[wl+"/sharded/shared/64"]
		if sb > 0 {
			fmt.Printf("%s shared-object ratio at parallelism 64: %.1fx (monitor semantics: sharding must NOT speed this up)\n",
				wl, ss/sb)
		}
	}
	return writeReport(out, "e8", report)
}

// ----- E9: adaptive placement -----

// e9Config carries the -adapt-* and -e9-* flag values.
type e9Config struct {
	window    time.Duration
	threshold float64
	minCalls  int
	confirm   int
	budget    int
	phase     time.Duration
	parallel  int
	minRatio  float64
	pool      int
}

// e9Source is the E9 workload: one hot shared object whose every call
// comes from the driver node.  bump does a little real work per call
// (a short accumulation loop) so the measurement compares placements,
// not just invocation plumbing.
const e9Source = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump(int x) {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + x; }
        n = n + acc;
        return n;
    }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// E9Bucket is one throughput sample during the adaptive phase.
type E9Bucket struct {
	OffsetMs    int64   `json:"offset_ms"`
	CallsPerSec float64 `json:"calls_per_sec"`
}

// E9Decision is one adapter decision, for the machine-readable log.
type E9Decision struct {
	Node     string `json:"node"`
	AtMs     int64  `json:"at_ms"` // offset from phase start
	Window   int    `json:"window"`
	Rule     string `json:"rule"`
	Action   string `json:"action"`
	GUID     string `json:"guid,omitempty"`
	Class    string `json:"class,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	Reason   string `json:"reason"`
	Executed bool   `json:"executed"`
	Err      string `json:"err,omitempty"`
}

// E9Report is the top-level BENCH_E9.json document.
type E9Report struct {
	Experiment  string  `json:"experiment"`
	Description string  `json:"description"`
	Timestamp   string  `json:"timestamp"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Parallel    int     `json:"parallelism"`
	AdaptWindow string  `json:"adapt_window"`
	Threshold   float64 `json:"adapt_threshold"`
	MinCalls    int     `json:"adapt_min_calls"`
	Confirm     int     `json:"adapt_confirm"`
	Budget      int     `json:"adapt_budget"`

	OptimalCallsPerSec   float64 `json:"optimal_calls_per_sec"`
	MisplacedCallsPerSec float64 `json:"misplaced_calls_per_sec"`
	ConvergedCallsPerSec float64 `json:"converged_calls_per_sec"`
	ConvergedRatio       float64 `json:"converged_ratio"`

	Buckets   []E9Bucket   `json:"buckets"`
	Decisions []E9Decision `json:"decisions"`
}

// e9Nodes builds the two-node deployment over a simulated LAN and
// returns (driver, server, driver endpoint, server endpoint).
func e9Nodes(pool int) (*rafda.Node, *rafda.Node, string, string, error) {
	prog, err := rafda.CompileString(e9Source)
	if err != nil {
		return nil, nil, "", "", err
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		return nil, nil, "", "", err
	}
	nodeA, err := tr.NewNode(rafda.NodeConfig{Name: "driver", Network: rafda.NetLAN, PoolSize: pool})
	if err != nil {
		return nil, nil, "", "", err
	}
	nodeB, err := tr.NewNode(rafda.NodeConfig{Name: "server", Network: rafda.NetLAN, PoolSize: pool})
	if err != nil {
		nodeA.Close()
		return nil, nil, "", "", err
	}
	epA, err := nodeA.Serve("rrp", "")
	if err == nil {
		var epB string
		epB, err = nodeB.Serve("rrp", "")
		if err == nil {
			return nodeA, nodeB, epA, epB, nil
		}
	}
	nodeA.Close()
	nodeB.Close()
	return nil, nil, "", "", err
}

// tailMean is the mean calls/sec of the last third of a phase's
// buckets — the steady-state statistic both phases are scored by.
func tailMean(buckets []E9Bucket) float64 {
	tail := buckets[len(buckets)-len(buckets)/3:]
	var sum float64
	for _, b := range tail {
		sum += b.CallsPerSec
	}
	return sum / float64(len(tail))
}

// e9Drive hammers ref from cfg.parallel goroutines for cfg.phase and
// samples throughput into 100ms buckets.
func e9Drive(n *rafda.Node, ref *rafda.Ref, cfg e9Config) ([]E9Bucket, float64, error) {
	var calls atomic.Int64
	errs := make(chan error, cfg.parallel)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < cfg.parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := n.CallOn(ref, "bump", 1); err != nil {
					errs <- err
					return
				}
				calls.Add(1)
			}
		}()
	}
	const bucket = 100 * time.Millisecond
	var buckets []E9Bucket
	start := time.Now()
	prev := int64(0)
	tick := time.NewTicker(bucket)
	for time.Since(start) < cfg.phase {
		<-tick.C
		cur := calls.Load()
		buckets = append(buckets, E9Bucket{
			OffsetMs:    time.Since(start).Milliseconds(),
			CallsPerSec: float64(cur-prev) / bucket.Seconds(),
		})
		prev = cur
	}
	tick.Stop()
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return nil, 0, err
	default:
	}
	return buckets, float64(calls.Load()) / elapsed.Seconds(), nil
}

// e9 reproduces the paper's §4 "future work" as a closed loop: the same
// two-node deployment is measured with the hot object placed optimally
// by hand, then mis-placed with the adaptive engine switched on.  The
// engine must discover the call affinity, migrate the object to the
// driver (zero manual Migrate/PlaceClass), and converge throughput to
// at least cfg.minRatio of the manual-optimal deployment — without
// ping-ponging the object (budget respected).
func e9(cfg e9Config, out string) error {
	report := E9Report{
		Experiment: "e9",
		Description: "adaptive placement: mis-placed hot object, telemetry-driven migration " +
			"vs manual-optimal placement, two nodes over simulated LAN",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Parallel:    cfg.parallel,
		AdaptWindow: cfg.window.String(),
		Threshold:   cfg.threshold,
		MinCalls:    cfg.minCalls,
		Confirm:     cfg.confirm,
		Budget:      cfg.budget,
	}

	// Phase 1 — manual-optimal: the hot object is local to the driver.
	// Both phases are scored by the same statistic — the mean of the
	// last third of their 100ms buckets — so warm-up transients cancel
	// out of the ratio.
	{
		nodeA, nodeB, _, _, err := e9Nodes(cfg.pool)
		if err != nil {
			return err
		}
		made, err := nodeA.Call("Setup", "make")
		if err != nil {
			nodeA.Close()
			nodeB.Close()
			return err
		}
		buckets, _, err := e9Drive(nodeA, made.(*rafda.Ref), cfg)
		nodeA.Close()
		nodeB.Close()
		if err != nil {
			return err
		}
		if len(buckets) < 6 {
			return fmt.Errorf("phase too short: %d buckets (raise -e9-seconds)", len(buckets))
		}
		report.OptimalCallsPerSec = tailMean(buckets)
	}

	// Phase 2 — mis-placed with the adapter on: the object starts on
	// the server; every call crosses the simulated LAN until the engine
	// moves it.
	nodeA, nodeB, _, epB, err := e9Nodes(cfg.pool)
	if err != nil {
		return err
	}
	defer nodeA.Close()
	defer nodeB.Close()
	phaseStart := time.Now()
	var decMu sync.Mutex
	onDecision := func(nodeName string) func(rafda.AdaptDecision) {
		return func(d rafda.AdaptDecision) {
			decMu.Lock()
			report.Decisions = append(report.Decisions, E9Decision{
				Node: nodeName, AtMs: time.Since(phaseStart).Milliseconds(),
				Window: d.Window, Rule: d.Rule, Action: d.Action,
				GUID: d.GUID, Class: d.Class, Endpoint: d.Endpoint,
				Reason: d.Reason, Executed: d.Executed, Err: d.Err,
			})
			decMu.Unlock()
		}
	}
	acfg := func(name string) rafda.AdaptConfig {
		return rafda.AdaptConfig{
			Window: cfg.window, Threshold: cfg.threshold, MinCalls: cfg.minCalls,
			Confirm: cfg.confirm, Budget: cfg.budget, OnDecision: onDecision(name),
		}
	}
	adA := nodeA.StartAdapter(acfg("driver"))
	adB := nodeB.StartAdapter(acfg("server"))

	if err := nodeA.PlaceClass("Counter", epB); err != nil {
		return err
	}
	made, err := nodeA.Call("Setup", "make")
	if err != nil {
		return err
	}
	buckets, _, err := e9Drive(nodeA, made.(*rafda.Ref), cfg)
	// Freeze the engines before reading the decision log: Stop waits
	// out any in-flight tick, so no OnDecision callback races the
	// acceptance checks or the JSON marshal below.
	adA.Stop()
	adB.Stop()
	if err != nil {
		return err
	}
	report.Buckets = buckets

	// Head = mis-placed cost, tail third = converged steady state.
	if len(buckets) < 6 {
		return fmt.Errorf("phase too short: %d buckets (raise -e9-seconds)", len(buckets))
	}
	report.MisplacedCallsPerSec = buckets[0].CallsPerSec
	report.ConvergedCallsPerSec = tailMean(buckets)
	report.ConvergedRatio = report.ConvergedCallsPerSec / report.OptimalCallsPerSec

	fmt.Printf("adaptive placement, %d callers over simulated LAN (window %v, threshold %.0f%%, confirm %d, budget %d)\n\n",
		cfg.parallel, cfg.window, 100*cfg.threshold, cfg.confirm, cfg.budget)
	fmt.Printf("  %-34s %12.0f calls/s\n", "manual-optimal (object local)", report.OptimalCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s\n", "mis-placed, first 100ms", report.MisplacedCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s  (%.0f%% of optimal)\n", "converged steady state",
		report.ConvergedCallsPerSec, 100*report.ConvergedRatio)
	fmt.Println("\nthroughput trajectory:")
	for _, b := range buckets {
		fmt.Printf("  t+%5dms %10.0f calls/s\n", b.OffsetMs, b.CallsPerSec)
	}
	fmt.Println("\ndecision log:")
	for _, d := range report.Decisions {
		status := "executed"
		if !d.Executed {
			status = "held(" + d.Err + ")"
		}
		tgt := d.GUID
		if tgt == "" {
			tgt = "class " + d.Class
		}
		fmt.Printf("  t+%5dms %-7s %-11s %-12s %s -> %q  [%s]\n",
			d.AtMs, d.Node, d.Rule, d.Action, tgt, d.Endpoint, status)
	}

	// Acceptance: the loop must have closed — at least one executed
	// migration with no manual call, throughput converged, no target
	// over budget.
	migrations := map[string]int{}
	correct := 0
	for _, d := range report.Decisions {
		if d.Action != "migrate" || !d.Executed {
			continue
		}
		migrations[d.GUID]++
		if d.Node == "server" && d.Endpoint == nodeA.Endpoint("rrp") {
			correct++
		}
	}
	if correct == 0 {
		return fmt.Errorf("adapter made no correct migration decision (object never moved to the driver)")
	}
	for g, m := range migrations {
		if m > cfg.budget {
			return fmt.Errorf("ping-pong: object %s migrated %d times (budget %d)", g, m, cfg.budget)
		}
	}
	if report.ConvergedRatio < cfg.minRatio {
		return fmt.Errorf("converged throughput %.0f calls/s is %.0f%% of optimal %.0f — below the %.0f%% bar",
			report.ConvergedCallsPerSec, 100*report.ConvergedRatio,
			report.OptimalCallsPerSec, 100*cfg.minRatio)
	}
	fmt.Printf("\nclosed loop converged: %.0f%% of manual-optimal with %d automatic migration(s), zero manual calls\n",
		100*report.ConvergedRatio, correct)

	return writeReport(out, "e9", report)
}

// ----- E10: cluster coordination (multi-hop adaptive migration) -----

// e10Config carries the -e10-* flag values.
type e10Config struct {
	heartbeat time.Duration
	phase     time.Duration
	parallel  int
	minRatio  float64
	pool      int
}

// E10Event is one cluster coordination event, node-attributed.
type E10Event struct {
	Node   string `json:"node"`
	AtMs   int64  `json:"at_ms"`
	Tick   uint64 `json:"tick"`
	Kind   string `json:"kind"`
	Peer   string `json:"peer,omitempty"`
	GUID   string `json:"guid,omitempty"`
	Class  string `json:"class,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// E10Report is the top-level BENCH_E10.json document.
type E10Report struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Parallel    int    `json:"parallelism"`
	Heartbeat   string `json:"cluster_heartbeat"`

	OptimalCallsPerSec   float64 `json:"optimal_calls_per_sec"`
	MisplacedCallsPerSec float64 `json:"misplaced_calls_per_sec"`
	ConvergedCallsPerSec float64 `json:"converged_calls_per_sec"`
	ConvergedRatio       float64 `json:"converged_ratio"`

	MultiHop struct {
		Proposer string `json:"proposer"`
		Source   string `json:"source"`
		Target   string `json:"target"`
	} `json:"multi_hop"`

	Buckets []E9Bucket `json:"buckets"`
	Events  []E10Event `json:"events"`
}

// e10Node builds one cluster-member node over the simulated LAN.
func e10Node(tr *rafda.Transformed, name string, pool int) (*rafda.Node, string, error) {
	n, err := tr.NewNode(rafda.NodeConfig{Name: name, Network: rafda.NetLAN, PoolSize: pool})
	if err != nil {
		return nil, "", err
	}
	ep, err := n.Serve("rrp", "")
	if err != nil {
		n.Close()
		return nil, "", err
	}
	return n, ep, nil
}

// e10 demonstrates the cluster coordination plane end to end: three
// nodes — "host" (initially owns the hot object), "caller" (drives all
// the traffic) and "scheduler" (idle, but the only member allowed to
// propose) — gossip membership, affinity rollups and placement intents.
// The scheduler must observe, via gossip alone, that the object on the
// host belongs at the caller, propose the host→caller migration (a
// multi-hop decision: proposer ≠ source ≠ target), and the host must
// execute it after reconciliation — zero manual Migrate/PlaceClass
// calls, no adapt engine anywhere.  The caller's stale proxy resolves
// the new home through the shared directory, and throughput converges
// to the manual-optimal deployment.
func e10(cfg e10Config, out string) error {
	report := E10Report{
		Experiment: "e10",
		Description: "cluster coordination: 3-node gossip cluster converges a mis-placed hot object " +
			"via a multi-hop migration (proposer != source != target), zero manual calls",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Parallel:   cfg.parallel,
		Heartbeat:  cfg.heartbeat.String(),
	}
	prog, err := rafda.CompileString(e9Source)
	if err != nil {
		return err
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		return err
	}
	drive := e9Config{phase: cfg.phase, parallel: cfg.parallel}

	// Phase 1 — manual-optimal baseline: the object is local to the
	// caller; same tail-mean statistic as phase 2.
	{
		caller, _, err := e10Node(tr, "caller", cfg.pool)
		if err != nil {
			return err
		}
		made, err := caller.Call("Setup", "make")
		if err != nil {
			caller.Close()
			return err
		}
		buckets, _, err := e9Drive(caller, made.(*rafda.Ref), drive)
		caller.Close()
		if err != nil {
			return err
		}
		if len(buckets) < 6 {
			return fmt.Errorf("phase too short: %d buckets (raise -e10-seconds)", len(buckets))
		}
		report.OptimalCallsPerSec = tailMean(buckets)
	}

	// Phase 2 — the cluster.
	scheduler, epA, err := e10Node(tr, "scheduler", cfg.pool)
	if err != nil {
		return err
	}
	defer scheduler.Close()
	host, epB, err := e10Node(tr, "host", cfg.pool)
	if err != nil {
		return err
	}
	defer host.Close()
	caller, _, err := e10Node(tr, "caller", cfg.pool)
	if err != nil {
		return err
	}
	defer caller.Close()

	phaseStart := time.Now()
	var evMu sync.Mutex
	onEvent := func(nodeName string) func(rafda.ClusterEvent) {
		return func(e rafda.ClusterEvent) {
			evMu.Lock()
			report.Events = append(report.Events, E10Event{
				Node: nodeName, AtMs: time.Since(phaseStart).Milliseconds(),
				Tick: e.Tick, Kind: e.Kind, Peer: e.Peer, GUID: e.GUID,
				Class: e.Class, From: e.From, To: e.To, Detail: e.Detail,
			})
			evMu.Unlock()
		}
	}
	ccfg := func(name string, propose bool, seeds ...string) rafda.ClusterConfig {
		return rafda.ClusterConfig{
			Seeds:     seeds,
			Heartbeat: cfg.heartbeat,
			Fanout:    3,
			Propose:   propose,
			OnEvent:   onEvent(name),
		}
	}
	clA, err := scheduler.JoinCluster(ccfg("scheduler", true))
	if err != nil {
		return err
	}
	clB, err := host.JoinCluster(ccfg("host", false, epA))
	if err != nil {
		return err
	}
	clC, err := caller.JoinCluster(ccfg("caller", false, epA, epB))
	if err != nil {
		return err
	}
	clA.Start()
	clB.Start()
	clC.Start()

	// Mis-place the hot object on the host, then hammer it from the
	// caller.  Only the scheduler may propose; only the host may
	// execute; the caller only talks.
	if err := caller.PlaceClass("Counter", epB); err != nil {
		return err
	}
	made, err := caller.Call("Setup", "make")
	if err != nil {
		return err
	}
	buckets, _, err := e9Drive(caller, made.(*rafda.Ref), drive)
	// Freeze the plane before reading the logs.
	clA.Stop()
	clB.Stop()
	clC.Stop()
	if err != nil {
		return err
	}
	report.Buckets = buckets
	if len(buckets) < 6 {
		return fmt.Errorf("phase too short: %d buckets (raise -e10-seconds)", len(buckets))
	}
	report.MisplacedCallsPerSec = buckets[0].CallsPerSec
	report.ConvergedCallsPerSec = tailMean(buckets)
	report.ConvergedRatio = report.ConvergedCallsPerSec / report.OptimalCallsPerSec

	fmt.Printf("cluster coordination, %d callers over simulated LAN (heartbeat %v, fanout 3)\n\n",
		cfg.parallel, cfg.heartbeat)
	fmt.Printf("  %-34s %12.0f calls/s\n", "manual-optimal (object at caller)", report.OptimalCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s\n", "mis-placed, first 100ms", report.MisplacedCallsPerSec)
	fmt.Printf("  %-34s %12.0f calls/s  (%.0f%% of optimal)\n", "converged steady state",
		report.ConvergedCallsPerSec, 100*report.ConvergedRatio)
	fmt.Println("\nthroughput trajectory:")
	for _, b := range buckets {
		fmt.Printf("  t+%5dms %10.0f calls/s\n", b.OffsetMs, b.CallsPerSec)
	}
	fmt.Println("\ncoordination log (propose/intent/migrate/dir):")
	evMu.Lock()
	events := append([]E10Event(nil), report.Events...)
	evMu.Unlock()
	for _, e := range events {
		switch e.Kind {
		case "propose", "intent", "migrate", "migrate-fail", "dir", "class-apply":
			tgt := e.GUID
			if tgt == "" {
				tgt = "class " + e.Class
			}
			fmt.Printf("  t+%5dms %-10s %-12s %-14s %s -> %s  [%s]\n",
				e.AtMs, e.Node, e.Kind, tgt, e.From, e.To, e.Detail)
		}
	}

	// Acceptance: exactly one executed migration; it must be multi-hop
	// (proposed by the scheduler, executed by the host, targeting the
	// caller); throughput must converge.
	var migrations []E10Event
	for _, e := range events {
		if e.Kind == "migrate" {
			migrations = append(migrations, e)
		}
	}
	if len(migrations) != 1 {
		return fmt.Errorf("want exactly 1 executed migration, got %d: %+v", len(migrations), migrations)
	}
	m := migrations[0]
	epC := caller.Endpoint("rrp")
	if m.Node != "host" || m.Peer != "scheduler" || m.To != epC {
		return fmt.Errorf("not the multi-hop migration wanted (proposer=scheduler source=host target=caller): %+v", m)
	}
	report.MultiHop.Proposer = m.Peer
	report.MultiHop.Source = m.Node
	report.MultiHop.Target = "caller"
	if report.ConvergedRatio < cfg.minRatio {
		return fmt.Errorf("converged throughput %.0f calls/s is %.0f%% of optimal %.0f — below the %.0f%% bar",
			report.ConvergedCallsPerSec, 100*report.ConvergedRatio,
			report.OptimalCallsPerSec, 100*cfg.minRatio)
	}
	fmt.Printf("\nmulti-hop converged: scheduler proposed, host executed, caller received — "+
		"%.0f%% of manual-optimal, zero manual calls\n", 100*report.ConvergedRatio)

	return writeReport(out, "e10", report)
}
