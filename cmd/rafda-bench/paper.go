package main

import (
	"fmt"
	"strings"
	"time"

	"rafda"
	"rafda/internal/corpus"
	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/transform"
	"rafda/internal/vm"
	"rafda/internal/wrapper"
)

// allProtocols is every transport a proxy's endpoint can name.
var allProtocols = []string{"inproc", "rrp", "soap", "json"}

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

// e1 prints the generated family for the paper's Figure 2 class X,
// reproducing the listings of Figures 3, 4 and 5.
func e1(profile, string) error {
	tr, err := transformed(figureXSource)
	if err != nil {
		return err
	}
	tp := tr.Program()
	for _, fig := range []struct {
		title   string
		classes []string
	}{
		{"Figure 3 — instance members transformation:", []string{"X_O_Int", "X_O_Local", "X_O_Proxy"}},
		{"Figure 4 — static members transformation:", []string{"X_C_Int", "X_C_Local", "X_C_Proxy"}},
		{"Figure 5 — factories:", []string{"X_O_Factory", "X_C_Factory"}},
	} {
		fmt.Println(fig.title)
		for _, c := range fig.classes {
			txt, err := tp.Disassemble(c, false)
			if err != nil {
				return err
			}
			fmt.Println(txt)
		}
	}
	return nil
}

// e2 reproduces §2.4: the transformability statistic over the 8,200
// class JDK-like corpus, plus the native-density sensitivity the paper
// predicts.
func e2(profile, string) error {
	a := transform.Analyze(corpus.Generate(corpus.JDKLike()))
	fmt.Println("paper: \"About 40% of the 8,200 classes and interfaces in JDK 1.4.1 cannot be transformed.\"")
	fmt.Println()
	fmt.Print(a.Report())

	fmt.Println("\nsensitivity to native-method density (paper: \"this percentage would increase\"):")
	fmt.Println("  core-native/1000   non-transformable")
	for _, nat := range nativeDensities {
		pct := transform.Analyze(nativeCorpus(nat)).Stats().Percent()
		fmt.Printf("  %16d   %6.1f%%\n", nat, pct)
	}
	return nil
}

// nativeDensities are the core-native classes per thousand e2 sweeps.
var nativeDensities = []int{50, 150, 300, 500}

// nativeCorpus is a 2,000-class JDK-like corpus with nat core-native
// classes per thousand.
func nativeCorpus(nat int) *ir.Program {
	p := corpus.JDKLike()
	p.Classes = 2000
	p.CoreNativeFrac = nat
	return corpus.Generate(p)
}

// figure1Source is the Figure 1 scenario for measurement: A holds a
// (possibly remote) C; one use() is one interaction with the shared
// instance.
const figure1Source = `
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

// figure1Modes are the deployments Figure 1 contrasts: the
// untransformed original, the transformed program with C local, and C
// remote behind each proxy protocol.
var figure1Modes = append([]string{"original", "transformed-local"}, allProtocols...)

// figure1 deploys the Figure 1 scenario in one of figure1Modes and
// returns one use() interaction.
func figure1(mode string) (use func() error, closeAll func(), err error) {
	if mode == "original" {
		prog, err := minijava.Compile(figure1Source)
		if err != nil {
			return nil, nil, err
		}
		machine := vm.MustNew(prog)
		a, err := machine.Invoke("Setup", "make", vm.Value{}, nil)
		if err != nil {
			return nil, nil, err
		}
		use = func() error {
			_, err := machine.Invoke(a.O.ClassName(), "use", a, nil)
			return err
		}
		return use, func() {}, nil
	}
	tr, err := transformed(figure1Source)
	if err != nil {
		return nil, nil, err
	}
	var client *rafda.Node
	if mode == "transformed-local" {
		if client, err = tr.NewNode(rafda.NodeConfig{Name: "client"}); err != nil {
			return nil, nil, err
		}
		closeAll = func() { client.Close() }
	} else if client, _, closeAll, err = remotePair(tr, mode, "C", rafda.NetProfile{}); err != nil {
		return nil, nil, err
	}
	a, err := client.Call("Setup", "make")
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	use = func() error {
		_, err := client.CallOn(a.(*rafda.Ref), "use")
		return err
	}
	return use, closeAll, nil
}

// e3 reproduces the Figure 1 scenario: the same interaction measured in
// each deployment.
func e3(profile, string) error {
	fmt.Println("Figure 1 scenario: A and B share C; one use() = one shared-instance interaction")
	fmt.Println("  deployment            per-call")
	for _, mode := range figure1Modes {
		use, closeAll, err := figure1(mode)
		if err != nil {
			return err
		}
		d, err := drive(load{parallel: 1, calls: 300}, func(int) error { return use() })
		closeAll()
		if err != nil {
			return err
		}
		label := mode
		if mode != "original" && mode != "transformed-local" {
			label = "C remote via " + mode
		}
		fmt.Printf("  %-20s  %10v\n", label, d.perCall())
	}
	fmt.Println("\nsemantic equivalence: verified by the test suite (identical output in every deployment)")
	return nil
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

// creationSource is E4's creation workload: one run makes hotLoopIters
// two-int objects, so the allocator and, in the transformed program, the
// factory's make() — a native call — and the separate init are what it
// measures.
const creationSource = `
class P {
    int x; int y;
    P(int x, int y) { this.x = x; this.y = y; }
}
class Driver {
    static int run(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            P p = new P(i, 1);
            acc = acc + p.y;
        }
        return acc;
    }
}
class Main { static void main() {} }`

// hotLoopIters is the loop length of one Driver.run.
const hotLoopIters = 1000

// e4Variants are the §3 variants e4Machine builds, in report order.
var e4Variants = []string{"original", "rafda-local", "wrapper"}

// e4Machine builds src in one §3 variant — "original", "rafda-local"
// (transformed, everything local) or "wrapper" (the wrapper-per-object
// baseline) — and returns one run(hotLoopIters) of its Driver.
func e4Machine(src, variant string) (func() error, error) {
	prog, err := minijava.Compile(src)
	if err != nil {
		return nil, err
	}
	machine, class := (*vm.VM)(nil), "Driver"
	switch variant {
	case "original":
		machine = vm.MustNew(prog)
	case "rafda-local":
		res, err := transform.Transform(prog, transform.Options{})
		if err != nil {
			return nil, err
		}
		machine, class = vm.MustNew(res.Program), transform.CFactory("Driver")
		transform.BindLocal(machine, res)
	case "wrapper":
		res, err := wrapper.Transform(prog)
		if err != nil {
			return nil, err
		}
		machine = vm.MustNew(res.Program)
	}
	args := []vm.Value{vm.IntV(hotLoopIters)}
	return func() error {
		res, err := machine.Invoke(class, "run", vm.Value{}, args)
		if err == nil && res.I != hotLoopIters {
			return fmt.Errorf("bad result %d", res.I)
		}
		return err
	}, nil
}

// e4 reproduces §3: interposition overhead of the RAFDA transformation
// vs the wrapper-per-object baseline, for calls and for creation.
func e4(profile, string) error {
	for _, w := range []struct{ what, src string }{
		{"method calls + field updates", hotLoopSource},
		{"creations of a two-int object", creationSource},
	} {
		per := map[string]driven{}
		for _, variant := range e4Variants {
			run, err := e4Machine(w.src, variant)
			if err != nil {
				return err
			}
			if per[variant], err = drive(load{parallel: 1, calls: 50}, func(int) error { return run() }); err != nil {
				return err
			}
		}
		orig := per["original"].perCall()
		fmt.Printf("workload: %d %s per run (§3 comparison)\n\n", hotLoopIters, w.what)
		fmt.Printf("  %-22s %12s %10s %12s\n", "variant", "per-run", "vs orig", "allocs/iter")
		for _, variant := range e4Variants {
			d := per[variant]
			fmt.Printf("  %-22s %12v %9.2fx %12.2f\n", variant, d.perCall().Round(time.Microsecond),
				float64(d.perCall())/float64(orig), float64(d.allocs)/float64(d.calls*hotLoopIters))
		}
		fmt.Printf("\npaper: wrappers are \"much simpler ... significantly greater overhead\": wrapper/rafda = %.2fx\n\n",
			float64(per["wrapper"].perCall())/float64(per["rafda-local"].perCall()))
	}
	return nil
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

// echoPair deploys EchoSvc on a server behind proto on net and returns
// the client node and its proxy to one instance.
func echoPair(proto string, net rafda.NetProfile) (*rafda.Node, *rafda.Ref, func(), error) {
	tr, err := transformed(echoSource)
	if err != nil {
		return nil, nil, nil, err
	}
	client, _, closeAll, err := remotePair(tr, proto, "EchoSvc", net)
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := client.Call("Setup", "make")
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return client, svc.(*rafda.Ref), closeAll, nil
}

// e5 compares the proxy protocol families on remote calls.
func e5(profile, string) error {
	fmt.Println("remote call cost by proxy protocol (loopback; BenchmarkE5_WANLatencyDominates adds WAN)")
	fmt.Printf("  %-8s %12s %14s %14s\n", "proto", "add(i,i)", "echo 1KiB", "echo 16KiB")
	for _, proto := range []string{"inproc", "rrp", "json", "soap"} {
		client, ref, closeAll, err := echoPair(proto, rafda.NetProfile{})
		if err != nil {
			return err
		}
		var per []time.Duration
		for _, c := range []struct {
			method string
			arg    []any
			calls  int
		}{
			{"add", []any{1, 2}, 200},
			{"echo", []any{strings.Repeat("x", 1024)}, 200},
			{"echo", []any{strings.Repeat("x", 16*1024)}, 50},
		} {
			d, err := drive(load{parallel: 1, calls: c.calls}, func(int) error {
				_, err := client.CallOn(ref, c.method, c.arg...)
				return err
			})
			if err != nil {
				closeAll()
				return err
			}
			per = append(per, d.perCall().Round(time.Microsecond))
		}
		closeAll()
		fmt.Printf("  %-8s %12v %14v %14v\n", proto, per[0], per[1], per[2])
	}
	return nil
}

// bagSource is the E6 workload: a static holder of one small object,
// migrated between nodes while its state must survive.
const bagSource = `
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

// e6Nodes deploys nodes a and b over rrp and returns a's reference to
// Holder.held, the object e6 migrates (its sum is 6 wherever it lives).
func e6Nodes() (nodes []*rafda.Node, eps []string, held *rafda.Ref, closeAll func(), err error) {
	tr, err := transformed(bagSource)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	nodes, eps, closeAll, err = deploy(tr, "rrp", rafda.NodeConfig{Name: "a"}, rafda.NodeConfig{Name: "b"})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	href, err := nodes[0].ReadStatic("Holder", "held")
	if err != nil {
		closeAll()
		return nil, nil, nil, nil, err
	}
	return nodes, eps, href.(*rafda.Ref), closeAll, nil
}

// e6 reproduces §4's dynamic reconfiguration: policy flips and live
// object migration.
func e6(profile, string) error {
	nodes, eps, ref, closeAll, err := e6Nodes()
	if err != nil {
		return err
	}
	defer closeAll()
	nodeA, nodeB := nodes[0], nodes[1]
	poke := func() (time.Duration, error) {
		d, err := drive(load{parallel: 1, calls: 200}, func(int) error {
			_, err := nodeA.Call("Holder", "poke")
			return err
		})
		return d.perCall(), err
	}
	migrate := func(ep string) (time.Duration, error) {
		start := time.Now()
		err := nodeA.Migrate(ref, ep)
		return time.Since(start), err
	}
	var rows []time.Duration
	for _, step := range []func() (time.Duration, error){
		poke, func() (time.Duration, error) { return migrate(eps[1]) },
		poke, func() (time.Duration, error) { return migrate(eps[0]) },
		poke,
	} {
		d, err := step()
		if err != nil {
			return err
		}
		rows = append(rows, d.Round(time.Microsecond))
	}
	fmt.Println("live object migration (Figure 1's Cp substitution on a running object):")
	for i, label := range []string{"per-call, object local", "migrate out (switch-over)", "per-call, object remote",
		"migrate back (via home pull-back)", "per-call, after return"} {
		fmt.Printf("  %-34s %12v\n", label, rows[i])
	}
	fmt.Printf("\nmigrations seen: nodeB in=%d, nodeA in=%d; state preserved throughout (sum stayed 6)\n",
		nodeB.Stats().MigrationsIn, nodeA.Stats().MigrationsIn)
	return nil
}
