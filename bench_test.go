package rafda

// Benchmark harness: one benchmark per experiment in DESIGN.md §4.
// EXPERIMENTS.md records the paper claim vs. the measured shape for each.
//
//	E1  Figures 2–5   transformation of the paper's sample class X
//	E2  §2.4          transformability analysis over the JDK-like corpus
//	E3  Figure 1/§4   the redistribution scenario, local vs remote
//	E4  §3            RAFDA transformation vs wrapper baseline overhead
//	E5  §1/§2         proxy protocol families under LAN conditions
//	E6  §4            dynamic redistribution: policy flips and migration
//	E7  scaling       RRP concurrency throughput: multiplexed vs lock-step
//	E8  scaling       intra-node parallelism: sharded VM locking vs the
//	                  coarse-lock baseline, distinct vs shared targets
//	E9  adaptive      telemetry-driven placement convergence
//	E11 scaling       pooled-transport saturation: sharded per-endpoint
//	                  connection pools vs the single-socket ceiling

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// figureXSource is the paper's Figure 2 class X with its collaborators.
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

// BenchmarkE1_TransformFigureX measures the §2 transformation pipeline
// on the paper's sample class (Figures 2→3,4,5): interface extraction,
// property-isation, static→singleton conversion, factory generation and
// reference rewriting.
func BenchmarkE1_TransformFigureX(b *testing.B) {
	prog, err := minijava.Compile(figureXSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Transform(prog, transform.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_TransformCorpus500 measures transformer throughput on a
// 500-class synthetic library (classes transformed per second).
func BenchmarkE1_TransformCorpus500(b *testing.B) {
	p := corpus.JDKLike()
	p.Classes = 500
	prog := corpus.Generate(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Transformed)), "classes")
		}
	}
}

// BenchmarkE2_Transformability runs the §2.4 substitutability analysis
// over the full 8,200-class JDK-like corpus and reports the
// non-transformable percentage (paper: "about 40%").
func BenchmarkE2_Transformability(b *testing.B) {
	prog := corpus.Generate(corpus.JDKLike())
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		a := transform.Analyze(prog)
		pct = a.Stats().Percent()
	}
	b.ReportMetric(pct, "%nontransformable")
}

// BenchmarkE2_NativeSensitivity sweeps native-method density, the
// paper's stated driver ("this percentage would increase if the user
// code contains native methods").
func BenchmarkE2_NativeSensitivity(b *testing.B) {
	for _, nat := range []int{50, 150, 300, 500} {
		b.Run(fmt.Sprintf("coreNative=%d", nat), func(b *testing.B) {
			p := corpus.JDKLike()
			p.Classes = 2000
			p.CoreNativeFrac = nat
			prog := corpus.Generate(p)
			var pct float64
			for i := 0; i < b.N; i++ {
				pct = transform.Analyze(prog).Stats().Percent()
			}
			b.ReportMetric(pct, "%nontransformable")
		})
	}
}

// figure1Bench is the Figure 1 scenario for measurement: A holds a
// (possibly remote) C; one use() is one interaction with the shared
// instance.
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

// BenchmarkE3_Figure1 measures one interaction with the shared C
// instance in every deployment the paper contrasts: the untransformed
// original, the transformed program with C local, and the transformed
// program with C remote behind each proxy protocol (LAN conditions).
func BenchmarkE3_Figure1(b *testing.B) {
	b.Run("original", func(b *testing.B) {
		prog, err := minijava.Compile(figure1Bench)
		if err != nil {
			b.Fatal(err)
		}
		machine := vm.MustNew(prog)
		a, err := machine.Invoke("Setup", "make", vm.Value{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := machine.Invoke(a.O.ClassName(), "use", a, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("transformed-local", func(b *testing.B) {
		tr := mustTransformed(b, figure1Bench)
		n, err := tr.NewNode(NodeConfig{Name: "solo"})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		a, err := n.Call("Setup", "make")
		if err != nil {
			b.Fatal(err)
		}
		ref := a.(*Ref)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := n.CallOn(ref, "use"); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, proto := range []string{"inproc", "rrp", "soap", "json"} {
		b.Run("remote-"+proto, func(b *testing.B) {
			tr := mustTransformed(b, figure1Bench)
			client, _, cleanup := remotePair(b, tr, proto, "C", NetProfile{})
			defer cleanup()
			a, err := client.Call("Setup", "make")
			if err != nil {
				b.Fatal(err)
			}
			ref := a.(*Ref)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.CallOn(ref, "use"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hotLoopSource is the E4 workload: a tight in-program loop of method
// calls and field updates, where interposition overhead dominates.
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

const hotLoopIters = 1000

// BenchmarkE4_InterpositionOverhead quantifies §3's comparison: the
// untransformed program, the RAFDA-transformed program (all-local), and
// the wrapper-per-object baseline the paper says has "significantly
// greater overhead".
func BenchmarkE4_InterpositionOverhead(b *testing.B) {
	run := func(b *testing.B, machine *vm.VM, class string) {
		b.Helper()
		args := []vm.Value{vm.IntV(hotLoopIters)}
		for i := 0; i < b.N; i++ {
			res, err := machine.Invoke(class, "run", vm.Value{}, args)
			if err != nil {
				b.Fatal(err)
			}
			if res.I != hotLoopIters {
				b.Fatalf("bad result %d", res.I)
			}
		}
	}

	b.Run("original", func(b *testing.B) {
		prog, err := minijava.Compile(hotLoopSource)
		if err != nil {
			b.Fatal(err)
		}
		run(b, vm.MustNew(prog), "Driver")
	})

	b.Run("rafda-local", func(b *testing.B) {
		prog, err := minijava.Compile(hotLoopSource)
		if err != nil {
			b.Fatal(err)
		}
		res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
		if err != nil {
			b.Fatal(err)
		}
		machine := vm.MustNew(res.Program)
		transform.BindLocal(machine, res)
		run(b, machine, transform.CFactory("Driver"))
	})

	b.Run("wrapper", func(b *testing.B) {
		prog, err := minijava.Compile(hotLoopSource)
		if err != nil {
			b.Fatal(err)
		}
		res, err := wrapper.Transform(prog)
		if err != nil {
			b.Fatal(err)
		}
		run(b, vm.MustNew(res.Program), "Driver")
	})
}

// BenchmarkE4_PropertyAblation isolates the cost of property-isation
// (field access through get_/set_ instead of direct access) — the
// design decision DESIGN.md §5 calls out.
func BenchmarkE4_PropertyAblation(b *testing.B) {
	direct := `
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
	b.Run("direct-field", func(b *testing.B) {
		prog, err := minijava.Compile(direct)
		if err != nil {
			b.Fatal(err)
		}
		machine := vm.MustNew(prog)
		args := []vm.Value{vm.IntV(hotLoopIters)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := machine.Invoke("Driver", "run", vm.Value{}, args); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("properties", func(b *testing.B) {
		prog, err := minijava.Compile(direct)
		if err != nil {
			b.Fatal(err)
		}
		res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
		if err != nil {
			b.Fatal(err)
		}
		machine := vm.MustNew(res.Program)
		transform.BindLocal(machine, res)
		args := []vm.Value{vm.IntV(hotLoopIters)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := machine.Invoke(transform.CFactory("Driver"), "run", vm.Value{}, args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// echoSource is the E5 workload: a remote echo of a payload, isolating
// per-call protocol cost (marshalling + framing + transport).
const echoSource = `
class EchoSvc {
    string echo(string s) { return s; }
    int add(int a, int b) { return a + b; }
}
class Setup {
    static EchoSvc make() { return new EchoSvc(); }
}
class Main { static void main() {} }`

// BenchmarkE5_Protocols compares the proxy protocol families the paper
// names (§1: "SOAP-based, RMI-based, ...") on small-argument calls and
// on growing payloads, under simulated LAN conditions.
func BenchmarkE5_Protocols(b *testing.B) {
	for _, proto := range []string{"inproc", "rrp", "soap", "json"} {
		b.Run(proto+"/add", func(b *testing.B) {
			tr := mustTransformed(b, echoSource)
			client, _, cleanup := remotePair(b, tr, proto, "EchoSvc", NetProfile{})
			defer cleanup()
			svc, err := client.Call("Setup", "make")
			if err != nil {
				b.Fatal(err)
			}
			ref := svc.(*Ref)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := client.CallOn(ref, "add", 20, 22)
				if err != nil {
					b.Fatal(err)
				}
				if got.(int64) != 42 {
					b.Fatal("bad echo")
				}
			}
		})
		for _, size := range []int{16, 1024, 16384} {
			b.Run(fmt.Sprintf("%s/echo%dB", proto, size), func(b *testing.B) {
				tr := mustTransformed(b, echoSource)
				client, _, cleanup := remotePair(b, tr, proto, "EchoSvc", NetProfile{})
				defer cleanup()
				svc, err := client.Call("Setup", "make")
				if err != nil {
					b.Fatal(err)
				}
				ref := svc.(*Ref)
				payload := makePayload(size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := client.CallOn(ref, "echo", payload)
					if err != nil {
						b.Fatal(err)
					}
					if len(got.(string)) != size {
						b.Fatal("bad payload")
					}
				}
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
		b.Run(proto, func(b *testing.B) {
			tr := mustTransformed(b, echoSource)
			client, _, cleanup := remotePair(b, tr, proto, "EchoSvc", NetWAN)
			defer cleanup()
			svc, err := client.Call("Setup", "make")
			if err != nil {
				b.Fatal(err)
			}
			ref := svc.(*Ref)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.CallOn(ref, "add", 1, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_Redistribution measures the §4 dynamic-reconfiguration
// mechanisms: flipping creation policy at run time, and migrating a
// live object between nodes (including the in-place proxy morph).
func BenchmarkE6_Redistribution(b *testing.B) {
	migSource := `
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

	b.Run("policy-flip", func(b *testing.B) {
		tr := mustTransformed(b, figure1Bench)
		client, server, cleanup := remotePair(b, tr, "rrp", "", NetProfile{})
		defer cleanup()
		ep := server.Endpoint("rrp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				if err := client.PlaceClass("C", ep); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := client.PlaceClass("C", "local"); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := client.Call("Setup", "make"); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("migrate-roundtrip", func(b *testing.B) {
		tr := mustTransformed(b, migSource)
		nodeA, err := tr.NewNode(NodeConfig{Name: "a"})
		if err != nil {
			b.Fatal(err)
		}
		defer nodeA.Close()
		nodeB, err := tr.NewNode(NodeConfig{Name: "b"})
		if err != nil {
			b.Fatal(err)
		}
		defer nodeB.Close()
		epA, err := nodeA.Serve("rrp", "")
		if err != nil {
			b.Fatal(err)
		}
		epB, err := nodeB.Serve("rrp", "")
		if err != nil {
			b.Fatal(err)
		}
		href, err := nodeA.ReadStatic("Holder", "held")
		if err != nil {
			b.Fatal(err)
		}
		ref := href.(*Ref)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := epB
			if i%2 == 1 {
				target = epA
			}
			if err := nodeA.Migrate(ref, target); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got, err := nodeA.Call("Holder", "poke"); err != nil || got.(int64) != 6 {
			b.Fatalf("state lost after %d migrations: %v %v", b.N, got, err)
		}
	})

	b.Run("post-migration-call", func(b *testing.B) {
		tr := mustTransformed(b, migSource)
		nodeA, err := tr.NewNode(NodeConfig{Name: "a"})
		if err != nil {
			b.Fatal(err)
		}
		defer nodeA.Close()
		nodeB, err := tr.NewNode(NodeConfig{Name: "b"})
		if err != nil {
			b.Fatal(err)
		}
		defer nodeB.Close()
		if _, err := nodeA.Serve("rrp", ""); err != nil {
			b.Fatal(err)
		}
		epB, err := nodeB.Serve("rrp", "")
		if err != nil {
			b.Fatal(err)
		}
		href, err := nodeA.ReadStatic("Holder", "held")
		if err != nil {
			b.Fatal(err)
		}
		if err := nodeA.Migrate(href.(*Ref), epB); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := nodeA.Call("Holder", "poke"); err != nil || got.(int64) != 6 {
				b.Fatalf("poke: %v %v", got, err)
			}
		}
	})
}

// runConcurrentCalls spreads b.N calls over `parallel` goroutines
// (work-stealing, so stragglers don't skew the tail) and reports
// aggregate throughput.
func runConcurrentCalls(b *testing.B, parallel int, call func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := call(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

// BenchmarkE7_ConcurrencyThroughput measures node-to-node RRP throughput
// when N goroutines share one connection, at parallelism 1/8/64, on the
// raw loopback and under simulated LAN conditions.  "serialized" is the
// seed transport's behaviour (one call in flight for the round trip),
// reproduced by a benchmark-side lock around each call; "multiplexed" is
// the pipelined transport.  The handler is a pure echo, so the numbers
// isolate transport + codec.
func BenchmarkE7_ConcurrencyThroughput(b *testing.B) {
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
	for _, nw := range networks {
		for _, mode := range []string{"serialized", "multiplexed"} {
			for _, parallel := range []int{1, 8, 64} {
				b.Run(fmt.Sprintf("%s/%s/p%d", nw.name, mode, parallel), func(b *testing.B) {
					tr := transport.NewRRP(transport.Options{Profile: nw.profile})
					srv, err := tr.Listen("", echo)
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					client, err := tr.Dial(srv.Endpoint())
					if err != nil {
						b.Fatal(err)
					}
					defer client.Close()
					var lockstep sync.Mutex
					req := &wire.Request{ID: 1, Op: wire.OpInvoke, GUID: "g", Method: "add",
						Args: []wire.Value{{Kind: wire.KInt, Int: 20}, {Kind: wire.KInt, Int: 22}}}
					runConcurrentCalls(b, parallel, func() error {
						if mode == "serialized" {
							lockstep.Lock()
							defer lockstep.Unlock()
						}
						resp, err := client.Call(req)
						if err != nil {
							return err
						}
						if resp.Result.Int != 42 {
							return fmt.Errorf("bad echo %+v", resp)
						}
						return nil
					})
				})
			}
		}
	}
}

// BenchmarkE7_NodeConcurrency is the end-to-end version: concurrent
// proxy invocations between two full nodes (VM, marshalling, dispatch)
// over the shared multiplexed RRP connection.
func BenchmarkE7_NodeConcurrency(b *testing.B) {
	for _, parallel := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("p%d", parallel), func(b *testing.B) {
			tr := mustTransformed(b, echoSource)
			client, _, cleanup := remotePair(b, tr, "rrp", "EchoSvc", NetProfile{})
			defer cleanup()
			svc, err := client.Call("Setup", "make")
			if err != nil {
				b.Fatal(err)
			}
			ref := svc.(*Ref)
			runConcurrentCalls(b, parallel, func() error {
				got, err := client.CallOn(ref, "add", 20, 22)
				if err != nil {
					return err
				}
				if got.(int64) != 42 {
					return fmt.Errorf("bad result %v", got)
				}
				return nil
			})
		})
	}
}

// e8Source is the E8 workload: an object whose deposit() is a pure
// read-modify-write (CPU-bound bytecode) and whose slowDeposit() blocks
// for 200µs between heap accesses (sys.Clock.sleepMicros models per-call
// blocking work — I/O, device time — that cannot release the VM because
// it sits between field reads and writes).
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

// runConcurrentCallsIdx is runConcurrentCalls with the goroutine index
// handed to the call, so each goroutine can address its own target.
func runConcurrentCallsIdx(b *testing.B, parallel int, call func(g int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := call(g); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

// BenchmarkE8_IntraNodeParallelism measures what the sharded VM lock
// buys INSIDE one node: concurrent invocations (the node CallOn path —
// the same gate discipline inbound dispatch uses) against distinct vs a
// shared target object, under the sharded design and under the seed's
// coarse-lock regime, reproduced by one benchmark-side lock around every
// call.
//
//   - distinct/sharded: scales with parallelism — blocking work overlaps
//     across objects (and CPU work across cores when GOMAXPROCS > 1);
//   - distinct/coarse: pinned to sequential throughput — one lock
//     serialises every invocation;
//   - shared/*: both regimes serialise (per-object monitor semantics);
//     the stress tests assert no update is lost.
//
// The "block" workload (200µs of in-call blocking) is the headline: it
// is the component a coarse lock cannot overlap no matter the core
// count.  The "cpu" workload additionally shows GOMAXPROCS-bound
// scaling on multicore hosts.
func BenchmarkE8_IntraNodeParallelism(b *testing.B) {
	workloads := []struct{ name, method string }{
		{"cpu", "deposit"},
		{"block", "slowDeposit"},
	}
	for _, wl := range workloads {
		for _, mode := range []string{"coarse", "sharded"} {
			for _, target := range []string{"distinct", "shared"} {
				for _, parallel := range []int{1, 8, 64} {
					name := fmt.Sprintf("%s/%s/%s/p%d", wl.name, mode, target, parallel)
					b.Run(name, func(b *testing.B) {
						prog, err := minijava.Compile(e8Source)
						if err != nil {
							b.Fatal(err)
						}
						res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
						if err != nil {
							b.Fatal(err)
						}
						n, err := node.New(node.Config{Name: "e8", Result: res})
						if err != nil {
							b.Fatal(err)
						}
						defer n.Close()
						objects := 1
						if target == "distinct" {
							objects = parallel
						}
						refs := make([]vm.Value, objects)
						for i := range refs {
							v, err := n.InvokeStatic("Mk", "make")
							if err != nil {
								b.Fatal(err)
							}
							refs[i] = v
						}
						arg := []vm.Value{vm.IntV(1)}
						var coarse sync.Mutex
						runConcurrentCallsIdx(b, parallel, func(g int) error {
							if mode == "coarse" {
								coarse.Lock()
								defer coarse.Unlock()
							}
							_, err := n.CallOn(refs[g%objects], wl.method, arg...)
							return err
						})
						// No call may be lost: the balances must account
						// for every deposit exactly once.
						var sum int64
						for _, ref := range refs {
							v, err := n.CallOn(ref, "deposit", vm.IntV(0))
							if err != nil {
								b.Fatal(err)
							}
							sum += v.I
						}
						if sum != int64(b.N) {
							b.Fatalf("lost updates: balances sum to %d, want %d", sum, b.N)
						}
					})
				}
			}
		}
	}
}

// ---- helpers ----

func mustTransformed(b *testing.B, src string) *Transformed {
	b.Helper()
	prog, err := CompileString(src)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := prog.Transform(WithProtocols("inproc", "rrp", "soap", "json"))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// remotePair builds a client/server pair over proto under the given
// network profile (zero profile: raw loopback, isolating protocol cost);
// placeClass (when non-empty) is placed on the server.
func remotePair(b *testing.B, tr *Transformed, proto, placeClass string, net NetProfile) (client, server *Node, cleanup func()) {
	b.Helper()
	server, err := tr.NewNode(NodeConfig{Name: "server", Network: net})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := server.Serve(proto, "")
	if err != nil {
		b.Fatal(err)
	}
	client, err = tr.NewNode(NodeConfig{Name: "client", Network: net})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := client.Serve(proto, ""); err != nil {
		b.Fatal(err)
	}
	if placeClass != "" {
		if err := client.PlaceClass(placeClass, ep); err != nil {
			b.Fatal(err)
		}
	}
	return client, server, func() {
		_ = client.Close()
		_ = server.Close()
	}
}

func makePayload(n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	return string(buf)
}

var _ = io.Discard

// e9BenchSource mirrors cmd/rafda-bench's E9 workload.
const e9BenchSource = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump(int x) { n = n + x; return n; }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// BenchmarkE9_AdaptivePlacement measures the three placements of E9's
// hot object: manually optimal (local from the start), statically
// mis-placed (every call pays the remote round trip forever), and
// adaptive (mis-placed start, telemetry-driven migration, then the
// converged steady state is measured).  The adaptive row must land near
// the manual-optimal row — that is the closed loop's whole claim.
func BenchmarkE9_AdaptivePlacement(b *testing.B) {
	build := func(b *testing.B) (*Node, *Node, string) {
		prog, err := CompileString(e9BenchSource)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := prog.Transform(WithProtocols("rrp"))
		if err != nil {
			b.Fatal(err)
		}
		nodeA, err := tr.NewNode(NodeConfig{Name: "driver"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nodeA.Close() })
		nodeB, err := tr.NewNode(NodeConfig{Name: "server"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nodeB.Close() })
		if _, err := nodeA.Serve("rrp", ""); err != nil {
			b.Fatal(err)
		}
		epB, err := nodeB.Serve("rrp", "")
		if err != nil {
			b.Fatal(err)
		}
		return nodeA, nodeB, epB
	}
	mkRef := func(b *testing.B, n *Node) *Ref {
		made, err := n.Call("Setup", "make")
		if err != nil {
			b.Fatal(err)
		}
		return made.(*Ref)
	}
	drive := func(b *testing.B, n *Node, ref *Ref) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := n.CallOn(ref, "bump", 1); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("manual-optimal", func(b *testing.B) {
		nodeA, _, _ := build(b)
		drive(b, nodeA, mkRef(b, nodeA))
	})

	b.Run("misplaced-static", func(b *testing.B) {
		nodeA, _, epB := build(b)
		if err := nodeA.PlaceClass("Counter", epB); err != nil {
			b.Fatal(err)
		}
		drive(b, nodeA, mkRef(b, nodeA))
	})

	b.Run("adaptive-converged", func(b *testing.B) {
		nodeA, nodeB, epB := build(b)
		cfg := AdaptConfig{Threshold: 0.6, MinCalls: 10, Confirm: 2, Budget: 2}
		adB := nodeB.NewAdapter(cfg)
		nodeA.NewAdapter(cfg) // telemetry on, symmetric deployment
		if err := nodeA.PlaceClass("Counter", epB); err != nil {
			b.Fatal(err)
		}
		ref := mkRef(b, nodeA)
		// Converge deterministically: traffic windows + manual ticks
		// until the migration decision executes, then one more call to
		// absorb the redirect.
		converged := false
		for w := 0; w < 10 && !converged; w++ {
			for i := 0; i < 30; i++ {
				if _, err := nodeA.CallOn(ref, "bump", 1); err != nil {
					b.Fatal(err)
				}
			}
			adB.Tick()
			for _, d := range adB.Decisions() {
				if d.Action == "migrate" && d.Executed {
					converged = true
				}
			}
		}
		if !converged {
			b.Fatal("adapter never migrated the hot object")
		}
		if _, err := nodeA.CallOn(ref, "bump", 1); err != nil {
			b.Fatal(err)
		}
		drive(b, nodeA, ref)
	})
}

// BenchmarkE11_PooledTransport measures the pooled-transport saturation
// experiment's core comparison: echo throughput at parallelism 64 over
// a per-endpoint connection pool of width 1 (the E7 single-socket
// configuration), 2, 4 and 8, under simulated LAN conditions.  On a
// multicore host widening the pool lifts the calls/s ceiling — every
// frame no longer funnels through one writer/reader goroutine pair; on
// one core the rows stay flat (the pair already saturates the CPU).
// `rafda-bench -exp e11` is the report form and writes BENCH_E11.json.
func BenchmarkE11_PooledTransport(b *testing.B) {
	echo := func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 42}}
	}
	lan := netsim.Profile{Latency: 100 * time.Microsecond, BandwidthBps: 1e9, Seed: 1}
	for _, pool := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lan/pool%d/p64", pool), func(b *testing.B) {
			tr := transport.NewRRP(transport.Options{Profile: lan})
			srv, err := tr.Listen("", echo)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cc := transport.NewClientCachePool(transport.NewRegistry(tr), pool)
			defer cc.Close()
			ep := srv.Endpoint()
			req := &wire.Request{ID: 1, Op: wire.OpInvoke, GUID: "g", Method: "add",
				Args: []wire.Value{{Kind: wire.KInt, Int: 20}, {Kind: wire.KInt, Int: 22}}}
			runConcurrentCalls(b, 64, func() error {
				resp, err := cc.CallKey(ep, "", req)
				if err != nil {
					return err
				}
				if resp.Result.Int != 42 {
					return fmt.Errorf("bad echo %+v", resp)
				}
				return nil
			})
		})
	}
}
