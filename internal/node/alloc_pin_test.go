package node

import (
	"runtime/debug"
	"testing"

	"rafda/internal/corpus"
	"rafda/internal/minijava"
	"rafda/internal/policy"
	"rafda/internal/transform"
	"rafda/internal/vm"
)

// remoteCallPin is the allocation count of one serial proxy call over
// loopback rrp in the default (traced) configuration, both ends
// included: proxy native, token, request encode, pool, server decode,
// dispatch chain, gate, interpreter, response, and the caller's decode.
// The five that remain are the outbound request (with its token and
// arguments), the server's decoded request (likewise), its dedup entry,
// its response, and the caller's decoded response.  A refactor of the
// outbound path must not raise it; a change that lowers it should lower
// the pin with it.
const remoteCallPin = 5

// TestAllocPinRemoteCall pins remoteCallPin.  AllocsPerRun counts every
// goroutine's allocations, so the server's half of the call is measured
// too.  Skipped under -race, where sync.Pool drops items at random.
func TestAllocPinRemoteCall(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a quarter of its items under the race detector")
	}
	res := transformSource(t, `
class EchoSvc {
    int add(int a, int b) { return a + b; }
}
class Setup { static EchoSvc make() { return new EchoSvc(); } }
class Main { static void main() {} }`)
	client, _, endpoint := twoNodes(t, res, "rrp")
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("EchoSvc", pl)
	ref, err := client.InvokeStatic("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	args := []vm.Value{vm.IntV(20), vm.IntV(22)}
	allocs := testing.AllocsPerRun(2000, func() {
		if v, err := client.CallOn(ref, "add", args...); err != nil || v.I != 42 {
			t.Fatalf("add = %v, %v", v, err)
		}
	})
	if allocs > remoteCallPin {
		t.Fatalf("a remote call allocates %.0f times; want at most %d", allocs, remoteCallPin)
	}
	t.Logf("%.0f allocs per remote call (pin %d)", allocs, remoteCallPin)
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, kv := range bi.Settings {
		if kv.Key == "-race" && kv.Value == "true" {
			return true
		}
	}
	return false
}

// bootAllocsPerClass bounds node.New's allocations per class of the
// program it boots: one native registration per factory and proxy
// class, and nothing that grows with the program's call graph.  The
// effect verdicts belong to the transform.Result and are solved on the
// first query, not at boot.
const bootAllocsPerClass = 2

// TestNodeBootAllocsPerClass pins bootAllocsPerClass over a 1,000-class
// JDK-like corpus (5,102 classes once transformed).  AllocsPerRun
// counts the node's Close too.
func TestNodeBootAllocsPerClass(t *testing.T) {
	params := corpus.JDKLike()
	params.Classes = 1000
	res, err := transform.Transform(corpus.Generate(params), transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		n, err := New(Config{Name: "boot", Result: res})
		if err != nil {
			t.Fatal(err)
		}
		n.Close()
	})
	classes := res.Program.Len()
	if per := allocs / float64(classes); per > bootAllocsPerClass {
		t.Fatalf("node.New allocates %.2f times per class over %d classes; want at most %d", per, classes, bootAllocsPerClass)
	}
	t.Logf("%.0f allocs to boot %d classes (%.2f per class, pin %d)", allocs, classes, allocs/float64(classes), bootAllocsPerClass)
}

// newSource: Driver.make(k) creates k two-int Ps.
const newSource = `
class P {
    int x; int y;
    P(int x, int y) { this.x = x; this.y = y; }
}
class Driver {
    static int make(int k) {
        int s = 0;
        for (int i = 0; i < k; i = i + 1) { P p = new P(i, 1); s = s + p.y; }
        return s;
    }
}
class Main { static void main() {} }`

// TestAllocPinLocalNew: a local new of a two-int class allocates as
// often as the original program's — once, header and slots together —
// through BindLocal's factory and through the node's policy-reading one.
// The factories built the local class's name on every make, and an
// object was a header and a slot vector: 3 against the original's 2.
// Skipped under -race, where sync.Pool drops a quarter of its items.
func TestAllocPinLocalNew(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a quarter of its items under the race detector")
	}
	prog, err := minijava.Compile(newSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Transform(prog, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	original := vm.MustNew(prog)
	bound := vm.MustNew(res.Program)
	transform.BindLocal(bound, res)
	n, err := New(Config{Name: "local", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, c := range []struct {
		name   string
		create func(k int64) (vm.Value, error)
	}{
		{"original", func(k int64) (vm.Value, error) {
			return original.Invoke("Driver", "make", vm.Value{}, []vm.Value{vm.IntV(k)})
		}},
		{"BindLocal", func(k int64) (vm.Value, error) {
			return bound.Invoke(transform.CFactory("Driver"), "make", vm.Value{}, []vm.Value{vm.IntV(k)})
		}},
		{"node", func(k int64) (vm.Value, error) { return n.InvokeStatic("Driver", "make", vm.IntV(k)) }},
	} {
		if per := allocsPerObject(t, c.create); per != 1 {
			t.Errorf("%s: a new P(int, int) allocates %v times, want 1", c.name, per)
		}
	}
}

// allocsPerObject is what one more of create's objects allocates: the
// difference between making 1,000 and making none, per object.
func allocsPerObject(t *testing.T, create func(k int64) (vm.Value, error)) float64 {
	t.Helper()
	const k = 1000
	run := func(k int64) func() {
		return func() {
			if v, err := create(k); err != nil || v.I != k {
				t.Fatalf("make(%d) = %v, %v", k, v, err)
			}
		}
	}
	run(k)()
	return (testing.AllocsPerRun(20, run(k)) - testing.AllocsPerRun(20, run(0))) / k
}
