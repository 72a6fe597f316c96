package node

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rafda/internal/minijava"
	"rafda/internal/policy"
	"rafda/internal/transform"
	"rafda/internal/vm"
)

// figure1Source models the paper's Figure 1: objects of classes A and B
// share an instance of class C; the shared instance is to become remote.
// All printing happens in Main so output location is deterministic.
const figure1Source = `
class C {
    int state;
    C(int s) { this.state = s; }
    int bump() { state = state + 1; return state; }
    int peek() { return state; }
}
class A {
    C c;
    A(C c) { this.c = c; }
    int use() { return c.bump(); }
}
class B {
    C c;
    B(C c) { this.c = c; }
    int use() { return c.bump(); }
}
class Main {
    static string run() {
        C shared = new C(100);
        A a = new A(shared);
        B b = new B(shared);
        string out = "";
        out = out + a.use() + ",";
        out = out + b.use() + ",";
        out = out + a.use() + ",";
        out = out + shared.peek();
        return out;
    }
    static void main() {
        sys.System.println(Main.run());
    }
}`

func transformSource(t *testing.T, src string) *transform.Result {
	t.Helper()
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := transform.Transform(prog, transform.Options{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return res
}

// twoNodes builds a client and server pair over the given protocol and
// returns them plus the server endpoint.
func twoNodes(t *testing.T, res *transform.Result, proto string) (client, server *Node, endpoint string) {
	t.Helper()
	server, err := New(Config{Name: "server", Result: res})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(func() { server.Close() })
	endpoint, err = server.Serve(proto, "")
	if err != nil {
		t.Fatalf("serve %s: %v", proto, err)
	}
	client, err = New(Config{Name: "client", Result: res})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	// The client must also serve so its objects can be referenced from
	// the server (shared references, callbacks).
	if _, err := client.Serve(proto, ""); err != nil {
		t.Fatalf("client serve: %v", err)
	}
	return client, server, endpoint
}

// count reads one of n's registered counters.
func count(n *Node, name string) uint64 { return n.Metrics().Counter(name).Load() }

// level reads one of n's registered gauges.
func level(n *Node, name string) int64 { return n.Metrics().Gauge(name).Load() }

func TestFigure1AllProtocols(t *testing.T) {
	res := transformSource(t, figure1Source)
	// Local baseline.
	var localOut bytes.Buffer
	localNode, err := New(Config{Name: "solo", Result: res, Output: &localOut})
	if err != nil {
		t.Fatal(err)
	}
	defer localNode.Close()
	if err := localNode.RunMain("Main"); err != nil {
		t.Fatalf("local run: %v", err)
	}
	want := "101,102,103,103\n"
	if localOut.String() != want {
		t.Fatalf("local baseline %q want %q", localOut.String(), want)
	}

	for _, proto := range []string{"inproc", "rrp", "soap", "json"} {
		t.Run(proto, func(t *testing.T) {
			res := transformSource(t, figure1Source)
			client, server, endpoint := twoNodes(t, res, proto)
			pl, err := policy.RemoteAt(endpoint)
			if err != nil {
				t.Fatal(err)
			}
			// Redistribute: instances of C live on the server.
			client.Policy().SetClass("C", pl)

			out, err := client.InvokeStatic("Main", "run")
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			if got := out.S + "\n"; got != want {
				t.Fatalf("distributed output %q want %q", got, want)
			}
			// The shared C instance really lived on the server.
			if count(server, "node.creates") == 0 {
				t.Error("server created no objects; C was not remote")
			}
			if count(server, "node.calls_in") == 0 {
				t.Error("server served no calls")
			}
			if count(client, "node.calls_out") == 0 {
				t.Error("client made no remote calls")
			}
		})
	}
}

func TestRemoteStatics(t *testing.T) {
	src := `
class Config {
    static int base = 500;
    static int scale(int x) { return base + x; }
}
class Main {
    static int probe(int x) { return Config.scale(x); }
    static void setBase(int b) { Config.base = b; }
    static int readBase() { return Config.base; }
}`
	res := transformSource(t, src)
	client, server, endpoint := twoNodes(t, res, "rrp")
	pl, _ := policy.RemoteAt(endpoint)
	client.Policy().SetClass("Config", pl)

	got, err := client.InvokeStatic("Main", "probe", vm.IntV(7))
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got.I != 507 {
		t.Fatalf("probe=%d want 507", got.I)
	}
	// Static state lives on the server: mutate from the client, observe
	// from the server directly.
	if _, err := client.InvokeStatic("Main", "setBase", vm.IntV(1000)); err != nil {
		t.Fatalf("setBase: %v", err)
	}
	serverSide, err := server.InvokeStatic("Main", "readBase")
	if err != nil {
		t.Fatalf("server readBase: %v", err)
	}
	if serverSide.I != 1000 {
		t.Fatalf("server sees base=%d want 1000 (statics not shared)", serverSide.I)
	}
	clientSide, err := client.InvokeStatic("Main", "readBase")
	if err != nil {
		t.Fatalf("client readBase: %v", err)
	}
	if clientSide.I != 1000 {
		t.Fatalf("client sees base=%d want 1000", clientSide.I)
	}
}

// TestFailedStaticInitRunsOnce: K's initialiser throws on its first run
// and main catches the exception and touches K again.  The original
// program's VM ran the initialiser once, so the second touch reads K.v
// unset; every placement of the transformed program must print the same,
// the statics living on this node or on a peer.
func TestFailedStaticInitRunsOnce(t *testing.T) {
	src := `
class Tries {
    static int n = 0;
}
class K {
    static int v = K.boot();
    static int boot() {
        Tries.n = Tries.n + 1;
        if (Tries.n == 1) { throw new sys.RuntimeException("first"); }
        return 20;
    }
}
class Main {
    static void main() {
        try {
            sys.System.println("first " + K.v);
        } catch (sys.RuntimeException e) {
            sys.System.println("caught " + e.getMessage());
        }
        sys.System.println("second " + K.v);
        K.boot();
        sys.System.println("tries " + Tries.n);
    }
}`
	prog, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := vm.MustNew(prog, vm.WithOutput(&want)).RunMain("Main"); err != nil {
		t.Fatal(err)
	}
	if want.String() != "caught first\nsecond 0\ntries 2\n" {
		t.Fatalf("original program printed %q", want.String())
	}
	res := transformSource(t, src)
	for _, remote := range []bool{false, true} {
		t.Run(fmt.Sprintf("statics remote=%v", remote), func(t *testing.T) {
			var out bytes.Buffer
			n, err := New(Config{Name: "main", Result: res, Output: &out})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			if remote {
				peer, err := New(Config{Name: "peer", Result: res})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { peer.Close() })
				endpoint, err := peer.Serve("rrp", "")
				if err != nil {
					t.Fatal(err)
				}
				pl, err := policy.RemoteAt(endpoint)
				if err != nil {
					t.Fatal(err)
				}
				n.Policy().SetClass("K", pl)
				n.Policy().SetClass("Tries", pl)
			}
			if err := n.RunMain("Main"); err != nil {
				t.Fatal(err)
			}
			if out.String() != want.String() {
				t.Fatalf("transformed program printed %q, the original %q", out.String(), want.String())
			}
		})
	}
}

func TestRemoteExceptionPropagation(t *testing.T) {
	src := `
class Risky {
    int divide(int a, int b) { return a / b; }
    void explode(string msg) { throw new sys.RuntimeException(msg); }
}
class Main {
    static string go() {
        Risky r = new Risky();
        string out = "";
        out = out + r.divide(10, 2);
        try {
            int x = r.divide(1, 0);
            out = out + ",nope" + x;
        } catch (sys.ArithmeticException e) {
            out = out + ",div:" + e.getMessage();
        }
        try {
            r.explode("boom");
        } catch (sys.RuntimeException e) {
            out = out + ",rt:" + e.getMessage();
        }
        return out;
    }
}`
	res := transformSource(t, src)
	client, _, endpoint := twoNodes(t, res, "json")
	pl, _ := policy.RemoteAt(endpoint)
	client.Policy().SetClass("Risky", pl)

	got, err := client.InvokeStatic("Main", "go")
	if err != nil {
		t.Fatalf("go: %v", err)
	}
	want := "5,div:division by zero,rt:boom"
	if got.S != want {
		t.Fatalf("got %q want %q", got.S, want)
	}
}

func TestNetworkFailureSurfacesAsRemoteException(t *testing.T) {
	src := `
class Box {
    int v;
    Box(int v) { this.v = v; }
    int get() { return v; }
}
class Main {
    static string go() {
        Box b = new Box(42);
        string out = "" + b.get();
        return out;
    }
}`
	res := transformSource(t, src)
	client, server, endpoint := twoNodes(t, res, "rrp")
	pl, _ := policy.RemoteAt(endpoint)
	client.Policy().SetClass("Box", pl)

	if got, err := client.InvokeStatic("Main", "go"); err != nil || got.S != "42" {
		t.Fatalf("warm-up: %v %v", got, err)
	}
	// Kill the server; further use must throw sys.RemoteException, which
	// is uncaught here.
	server.Close()
	_, err := client.InvokeStatic("Main", "go")
	if err == nil {
		t.Fatal("expected failure after server shutdown")
	}
	var unc *vm.UncaughtError
	if !asError(err, &unc) || unc.Class != "sys.RemoteException" {
		t.Fatalf("want uncaught sys.RemoteException, got %v", err)
	}
}

func asError[T error](err error, target *T) bool {
	for ; err != nil; err = unwrap(err) {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestSharedReferenceAcrossNodes passes an object created on the client
// to a remote object; the remote code mutates it through a proxy back to
// the client — reference semantics survive distribution.
func TestSharedReferenceAcrossNodes(t *testing.T) {
	src := `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    void add(int d) { n = n + d; }
    int get() { return n; }
}
class Worker {
    void work(Counter c) {
        c.add(5);
        c.add(6);
    }
}
class Main {
    static int go() {
        Counter local = new Counter(100);
        Worker w = new Worker();
        w.work(local);
        return local.get();
    }
}`
	res := transformSource(t, src)
	client, _, endpoint := twoNodes(t, res, "rrp")
	pl, _ := policy.RemoteAt(endpoint)
	// Worker is remote; Counter stays on the client.
	client.Policy().SetClass("Worker", pl)

	got, err := client.InvokeStatic("Main", "go")
	if err != nil {
		t.Fatalf("go: %v", err)
	}
	if got.I != 111 {
		t.Fatalf("counter=%d want 111 (callback mutation lost)", got.I)
	}
	if count(client, "node.calls_in") == 0 {
		t.Error("client never served the callback")
	}
}

func TestMigration(t *testing.T) {
	src := `
class Store {
    int total;
    Store(int t) { this.total = t; }
    int add(int d) { total = total + d; return total; }
}
class Holder {
    static Store s = new Store(1000);
    static int poke(int d) { return s.add(d); }
}
class Main { static void main() { } }`
	res := transformSource(t, src)
	client, server, endpoint := twoNodes(t, res, "rrp")

	// Warm up: the Store lives locally on the client.
	if got, err := client.InvokeStatic("Holder", "poke", vm.IntV(1)); err != nil || got.I != 1001 {
		t.Fatalf("local poke: %v %v", got, err)
	}
	// Grab the live reference and migrate it to the server.
	ref, err := client.ReadStatic("Holder", "s")
	if err != nil {
		t.Fatalf("read static: %v", err)
	}
	if ref.O == nil {
		t.Fatal("nil store reference")
	}
	if err := client.Migrate(ref, endpoint); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// The same static field now reaches the migrated object remotely;
	// state carried over (1001) and continues to mutate on the server.
	got, err := client.InvokeStatic("Holder", "poke", vm.IntV(10))
	if err != nil {
		t.Fatalf("post-migration poke: %v", err)
	}
	if got.I != 1011 {
		t.Fatalf("post-migration total=%d want 1011", got.I)
	}
	if in := count(server, "node.migrations_in"); in != 1 {
		t.Errorf("server migrations=%d want 1", in)
	}
	if count(server, "node.calls_in") == 0 {
		t.Error("server served no post-migration calls")
	}
	// The client-side object really morphed into a proxy.
	if !strings.HasSuffix(ref.O.ClassName(), "_O_Proxy") {
		t.Errorf("object did not morph: now %s", ref.O.ClassName())
	}
}

// TestRedirectedProxyShipsItsEndpointsProtocol: a client's proxy to an
// object served over rrp follows it to a soap endpoint by redirect.
// The reference the client then ships for it, as it would as a call's
// argument, must carry the soap endpoint: its scheme is the protocol.
func TestRedirectedProxyShipsItsEndpointsProtocol(t *testing.T) {
	res := transformSource(t, `
class Store {
    int total;
    Store(int t) { this.total = t; }
    int add(int d) { total = total + d; return total; }
}
class Main {
    static Store open() { return new Store(7); }
    static void main() { }
}`)
	client, home, epHome := twoNodes(t, res, "rrp")
	away, err := New(Config{Name: "away", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { away.Close() })
	epAway, err := away.Serve("soap", "")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := policy.RemoteAt(epHome)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Store", pl)
	store, err := client.InvokeStatic("Main", "open")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := readProxyRef(store.O)
	obj, ok := home.exports.Get(id)
	if !ok {
		t.Fatalf("home does not export %s", id)
	}
	if err := home.Migrate(vm.RefV(obj), epAway); err != nil {
		t.Fatal(err)
	}
	if got, err := client.CallOn(store, "add", vm.IntV(1)); err != nil || got.I != 8 {
		t.Fatalf("add through the old home = %v, %v; want 8", got, err)
	}
	if _, ep := readProxyRef(store.O); ep != epAway {
		t.Fatalf("proxy endpoint %s after the redirect, want %s", ep, epAway)
	}
	shipped, err := client.marshalValue(store, "")
	if err != nil {
		t.Fatal(err)
	}
	ref := shipped.Ref
	if ref == nil || ref.Endpoint != epAway || !strings.HasPrefix(ref.Endpoint, "soap://") {
		t.Fatalf("shipped %+v, want endpoint %s over soap", ref, epAway)
	}
}

func TestDynamicRedistributionByPolicy(t *testing.T) {
	src := `
class Item {
    int v;
    Item(int v) { this.v = v; }
    int get() { return v; }
}
class Main {
    static int mk(int v) {
        Item it = new Item(v);
        return it.get();
    }
}`
	res := transformSource(t, src)
	client, server, endpoint := twoNodes(t, res, "inproc")

	// Phase 1: local.
	if got, err := client.InvokeStatic("Main", "mk", vm.IntV(1)); err != nil || got.I != 1 {
		t.Fatalf("phase1: %v %v", got, err)
	}
	before := count(server, "node.creates")
	if before != 0 {
		t.Fatalf("server already created %d objects", before)
	}
	// Phase 2: flip policy at run time; creations move to the server.
	pl, _ := policy.RemoteAt(endpoint)
	client.Policy().SetClass("Item", pl)
	if got, err := client.InvokeStatic("Main", "mk", vm.IntV(2)); err != nil || got.I != 2 {
		t.Fatalf("phase2: %v %v", got, err)
	}
	if count(server, "node.creates") != 1 {
		t.Fatalf("server creates=%d want 1", count(server, "node.creates"))
	}
	// Phase 3: revert.
	client.Policy().SetClass("Item", policy.LocalPlacement)
	if got, err := client.InvokeStatic("Main", "mk", vm.IntV(3)); err != nil || got.I != 3 {
		t.Fatalf("phase3: %v %v", got, err)
	}
	if count(server, "node.creates") != 1 {
		t.Fatalf("server creates=%d want still 1", count(server, "node.creates"))
	}
}

func TestThreeNodeChain(t *testing.T) {
	src := `
class Tail {
    int weight;
    Tail(int w) { this.weight = w; }
    int get() { return weight; }
}
class Mid {
    Tail t;
    Mid(Tail t) { this.t = t; }
    int doubleIt() { return t.get() * 2; }
}
class Main {
    static int go(int w) {
        Tail tl = new Tail(w);
        Mid m = new Mid(tl);
        return m.doubleIt();
    }
}`
	res := transformSource(t, src)
	n1, err := New(Config{Name: "n1", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := New(Config{Name: "n2", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n3, err := New(Config{Name: "n3", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	ep1, _ := n1.Serve("rrp", "")
	ep2, _ := n2.Serve("rrp", "")
	ep3, _ := n3.Serve("rrp", "")
	_ = ep1

	// Main runs on n1; Mid lives on n2; Tail lives on n3.
	pl2, _ := policy.RemoteAt(ep2)
	pl3, _ := policy.RemoteAt(ep3)
	n1.Policy().SetClass("Mid", pl2)
	n1.Policy().SetClass("Tail", pl3)

	got, err := n1.InvokeStatic("Main", "go", vm.IntV(21))
	if err != nil {
		t.Fatalf("go: %v", err)
	}
	if got.I != 42 {
		t.Fatalf("got %d want 42", got.I)
	}
	// n2 must have called n3 directly: the Tail reference it received
	// pointed at n3, not at n1.
	if count(n2, "node.calls_out") == 0 {
		t.Error("mid node made no outgoing calls; reference did not retarget")
	}
	if count(n3, "node.calls_in") == 0 {
		t.Error("tail node served no calls")
	}
}

func TestArraysCrossTheWireByValue(t *testing.T) {
	src := `
class Summer {
    int sum(int[] xs) {
        int s = 0;
        for (int i = 0; i < xs.length; i = i + 1) { s = s + xs[i]; }
        return s;
    }
}
class Main {
    static int go() {
        int[] xs = new int[4];
        xs[0] = 1; xs[1] = 2; xs[2] = 3; xs[3] = 4;
        Summer s = new Summer();
        int r = s.sum(xs);
        xs[0] = 100; // server must not see this (value semantics)
        return r + s.sum(xs);
    }
}`
	res := transformSource(t, src)
	client, _, endpoint := twoNodes(t, res, "soap")
	pl, _ := policy.RemoteAt(endpoint)
	client.Policy().SetClass("Summer", pl)

	got, err := client.InvokeStatic("Main", "go")
	if err != nil {
		t.Fatalf("go: %v", err)
	}
	if got.I != 10+109 {
		t.Fatalf("got %d want %d", got.I, 10+109)
	}
}

func TestProxyOfProxyCollapses(t *testing.T) {
	// Passing a proxy back to its home node must unwrap to the original
	// object, not wrap a proxy around a proxy.
	src := `
class Cell {
    int v;
    Cell(int v) { this.v = v; }
    int get() { return v; }
}
class Echo {
    Cell bounce(Cell c) { return c; }
}
class Main {
    static bool go() {
        Cell c = new Cell(7);
        Echo e = new Echo();
        Cell back = e.bounce(c);
        return back == c;
    }
}`
	res := transformSource(t, src)
	client, _, endpoint := twoNodes(t, res, "rrp")
	pl, _ := policy.RemoteAt(endpoint)
	client.Policy().SetClass("Echo", pl)

	got, err := client.InvokeStatic("Main", "go")
	if err != nil {
		t.Fatalf("go: %v", err)
	}
	if !got.Bool() {
		t.Fatal("reference identity lost on round trip: proxy of proxy was created")
	}
}

// TestStatsString pins that the activity counters print where operators
// read them: every "node.*" instrument is a row of the introspection
// snapshot's metrics section from construction on, before any traffic.
func TestStatsString(t *testing.T) {
	n, err := New(Config{Name: "n", Result: transformSource(t, "class Main { static void main() {} }")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	out, err := n.Introspect("metrics", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node.calls_in", "node.calls_out", "node.creates", "node.migrations_in", "node.migrations_out"} {
		if !strings.Contains(out, fmt.Sprintf("%q: %q", "name", name)) {
			t.Fatalf("metrics section lacks %s:\n%s", name, out)
		}
	}
}

// TestConcurrentRemoteInvocations drives one client node from many
// goroutines against a remote service over the multiplexed RRP
// transport: all calls share the node's one cached client connection, so
// this exercises concurrent dispatch on the server, concurrent response
// correlation on the client, and the VM-lock release around network
// waits.  Run under -race in CI.
func TestConcurrentRemoteInvocations(t *testing.T) {
	src := `
class Echo {
    int add(int a, int b) { return a + b; }
}
class Gate {
    static Echo svc = new Echo();
    static int call(int a, int b) { return svc.add(a, b); }
}
class Main { static void main() {} }`
	res := transformSource(t, src)
	client, server, endpoint := twoNodes(t, res, "rrp")
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Echo", pl)

	// Prime the singleton (and the remote Echo instance) once, before
	// the contention starts, so every goroutine then shares one proxy.
	if got, err := client.InvokeStatic("Gate", "call", vm.IntV(1), vm.IntV(2)); err != nil || got.I != 3 {
		t.Fatalf("prime: %v %v", got, err)
	}

	const goroutines = 8
	const callsEach = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				a, b := int64(g*1000+i), int64(i)
				got, err := client.InvokeStatic("Gate", "call", vm.IntV(a), vm.IntV(b))
				if err != nil {
					t.Errorf("g%d call %d: %v", g, i, err)
					return
				}
				if got.I != a+b {
					t.Errorf("g%d call %d: got %d want %d (cross-correlated result)", g, i, got.I, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if in := count(server, "node.calls_in"); in < goroutines*callsEach {
		t.Errorf("server saw %d calls, want at least %d", in, goroutines*callsEach)
	}
}

// TestReferenceProtocolIsFirstServed: a node serving rrp and then soap,
// running a program transformed for rrp alone, hands out every
// reference on rrp.  With no protocol preferred — a method result, a
// created object — the node falls back to the endpoint it served first,
// not to whichever its endpoint table yields; a soap reference would
// reach the client as a proxy class its program lacks.
func TestReferenceProtocolIsFirstServed(t *testing.T) {
	prog, err := minijava.Compile(`
class Item {
    int v;
    Item(int v) { this.v = v; }
    int get() { return v; }
}
class Shop {
    Shop() {}
    Item make(int v) { return new Item(v); }
}
class Setup {
    static Shop open() { return new Shop(); }
}
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Transform(prog, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := New(Config{Name: "server", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	ep, err := server.Serve("rrp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Serve("soap", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client, err := New(Config{Name: "client", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	pl, err := policy.RemoteAt(ep)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Shop", pl)
	shop, err := client.InvokeStatic("Setup", "open")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		item, err := client.CallOn(shop, "make", vm.IntV(i))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got, err := client.CallOn(item, "get"); err != nil || got.I != i {
			t.Fatalf("call %d: item.get() = %v %v", i, got, err)
		}
	}
}
