package node

import (
	"reflect"
	"testing"
	"time"

	"rafda/internal/cluster"
	"rafda/internal/policy"
	"rafda/internal/transform"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

const chainSource = `
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Setup {
    static Counter make() { return new Counter(0); }
}
class Main { static void main() {} }`

// clusterNode builds one node serving inproc and joined to the cluster
// through seed (itself first).
func clusterNode(t *testing.T, res *transform.Result, name, seed string) (*Node, *cluster.Coordinator, string) {
	t.Helper()
	n, err := New(Config{Name: name, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ep, err := n.Serve("inproc", "")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	if seed != "" {
		seeds = []string{seed}
	}
	co, err := n.StartCluster(cluster.Config{Fanout: 8}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return n, co, ep
}

// TestRedirectChainCollapses is the regression for forwarding-chain
// growth: after N successive migrations, a caller holding the original
// (N-hops-stale) reference must reach the final home in one hop via the
// placement directory — zero traffic through the intermediate nodes —
// instead of walking the Response.Redirect chain one call (and one full
// chain traversal) at a time.
func TestRedirectChainCollapses(t *testing.T) {
	res := transformSource(t, chainSource)

	n0, co0, _ := clusterNode(t, res, "n0", "")
	seed := co0.Self()
	n1, co1, ep1 := clusterNode(t, res, "n1", seed)
	n2, co2, ep2 := clusterNode(t, res, "n2", seed)
	n3, co3, ep3 := clusterNode(t, res, "n3", seed)
	n4, co4, ep4 := clusterNode(t, res, "n4", seed)
	coords := []*cluster.Coordinator{co0, co1, co2, co3, co4}
	tick := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, co := range coords {
				co.Tick()
			}
		}
	}

	// n0 creates the object at n1 and holds the original proxy.
	pl, err := policy.RemoteAt(ep1)
	if err != nil {
		t.Fatal(err)
	}
	n0.Policy().SetClass("Counter", pl)
	ref, err := n0.InvokeStatic("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n0.CallOn(ref, "bump"); err != nil || got.I != 1 {
		t.Fatalf("first bump: %v %v", got, err)
	}

	// March the object n1→n2→n3→n4, each hop driven at the object's
	// current home (n0's stale proxy never learns).
	guid := ref.O.Get(transform.ProxyFieldGUID).S
	homes := []*Node{n1, n2, n3}
	targets := []string{ep2, ep3, ep4}
	for i, home := range homes {
		obj, ok := home.exports.Get(guid)
		if !ok {
			t.Fatalf("hop %d: %s not exported at %s", i, guid, home.Name())
		}
		if err := home.Migrate(vm.RefV(obj), targets[i]); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		newRef := proxyRefOf(obj)
		if newRef == nil {
			t.Fatalf("hop %d: object did not morph", i)
		}
		guid = newRef.GUID
	}

	// Gossip until every member's directory has the collapsed chain.
	tick(4)
	staleGUID := ref.O.Get(transform.ProxyFieldGUID).S
	for _, co := range coords {
		r, ok := co.Resolve(staleGUID)
		if !ok || r.Endpoint != ep4 || r.GUID != guid {
			t.Fatalf("%s resolves %s to %+v (ok=%v), want %s@%s",
				co.ID(), staleGUID, r, ok, guid, ep4)
		}
	}

	// The assertion: one call from the stale reference, no traffic
	// through n1/n2/n3.  (No coordinator ticks in this window, so the
	// inbound counters isolate the invocation itself.)
	in1, in2, in3 := count(n1, "node.calls_in"), count(n2, "node.calls_in"), count(n3, "node.calls_in")
	got, err := n0.CallOn(ref, "bump")
	if err != nil || got.I != 2 {
		t.Fatalf("bump after chain: %v %v (state lost across migrations?)", got, err)
	}
	if d := count(n1, "node.calls_in") - in1; d != 0 {
		t.Fatalf("call flowed through n1 (%d requests)", d)
	}
	if d := count(n2, "node.calls_in") - in2; d != 0 {
		t.Fatalf("call flowed through n2 (%d requests)", d)
	}
	if d := count(n3, "node.calls_in") - in3; d != 0 {
		t.Fatalf("call flowed through n3 (%d requests)", d)
	}
	// And the proxy is permanently retargeted at the final home.
	if ep := ref.O.Get(transform.ProxyFieldEndpoint).S; ep != ep4 {
		t.Fatalf("proxy points at %s, want %s", ep, ep4)
	}
	_ = n4
}

// TestAffinitySamplesWindowRollups pins the evidence a home gossips for
// multi-hop placement: only migratable objects called since the
// previous rollup, with window-delta counts, callers sorted by
// endpoint, rollups hottest first (ties by GUID), truncated to max —
// and nothing after a quiet window.
func TestAffinitySamplesWindowRollups(t *testing.T) {
	n, err := New(Config{Name: "home", Result: transformSource(t, chainSource)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rec := n.EnableTelemetry()
	rt := &clusterRuntime{n: n, win: rec.NewWindow()}
	const epA, epB, epC = "rrp://a:1", "rrp://b:1", "rrp://c:1"
	objs := map[string]*vm.Object{}
	call := func(guid, class, from string, times int) {
		o := objs[guid]
		if o == nil {
			if o, err = n.machine.NewObject(class); err != nil {
				t.Fatal(err)
			}
			objs[guid] = o
		}
		s := rec.ForObject(o, guid, "Counter")
		for i := 0; i < times; i++ {
			s.RecordInbound(from, 8, 8, time.Microsecond)
		}
	}

	call("hot", "Counter_O_Local", epB, 7) // before the window: not counted below
	if got := rt.AffinitySamples(8); len(got) != 1 || got[0].GUID != "hot" || got[0].Calls != 7 {
		t.Fatalf("first rollup = %+v", got)
	}

	call("hot", "Counter_O_Local", epB, 30)
	call("hot", "Counter_O_Local", epA, 10)
	call("warm", "Counter_O_Local", epA, 12)
	call("warm2", "Counter_O_Local", epC, 12)
	call("proxy", transform.OProxy("Counter"), epA, 100) // not migratable
	got := rt.AffinitySamples(2)
	if len(got) != 2 || got[0].GUID != "hot" || got[1].GUID != "warm" {
		t.Fatalf("rollups = %+v, want [hot warm]", got)
	}
	h := got[0]
	wantCallers := []wire.EndpointCount{{Endpoint: epA, Calls: 10}, {Endpoint: epB, Calls: 30}}
	if h.Calls != 40 || h.Class != "Counter" || !reflect.DeepEqual(h.Callers, wantCallers) {
		t.Fatalf("hot rollup = %+v, want 40 window calls from %+v", h, wantCallers)
	}

	if got := rt.AffinitySamples(8); len(got) != 0 {
		t.Fatalf("rollups after a quiet window: %+v", got)
	}
}

// TestZeroConfigMembersFollowClassPlacements: following gossiped class
// placements is not an option — members joined with a zero
// cluster.Config apply a placement one member announces, each through
// the one endpoint→placement rule (its own endpoint lands local).
func TestZeroConfigMembersFollowClassPlacements(t *testing.T) {
	res := transformSource(t, chainSource)
	var nodes []*Node
	var coords []*cluster.Coordinator
	var eps []string
	for _, name := range []string{"a", "b", "c"} {
		n, err := New(Config{Name: name, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		ep, err := n.Serve("inproc", "")
		if err != nil {
			t.Fatal(err)
		}
		var seeds []string
		if len(eps) > 0 {
			seeds = eps[:1]
		}
		co, err := n.StartCluster(cluster.Config{}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		nodes, coords, eps = append(nodes, n), append(coords, co), append(eps, ep)
	}
	tick := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, co := range coords {
				co.Tick()
			}
		}
	}
	tick(2)
	if err := nodes[0].PlaceClass("Counter", eps[1]); err != nil {
		t.Fatal(err)
	}
	tick(3)
	for i, want := range []string{eps[1], "", eps[1]} {
		if got := nodes[i].ClassPlacement("Counter"); got != want {
			t.Fatalf("node %d places Counter at %q, want %q", i, got, want)
		}
	}
}

// TestVolunteeredCallbackMakesAffinityActionable: a pure-client node
// (serving nothing) must volunteer a callback endpoint at dial time, so
// the server attributes its calls to a real endpoint instead of the
// anonymous bucket — and a migration toward it has somewhere to go.
func TestVolunteeredCallbackMakesAffinityActionable(t *testing.T) {
	res := transformSource(t, chainSource)
	server, err := New(Config{Name: "server", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	ep, err := server.Serve("inproc", "")
	if err != nil {
		t.Fatal(err)
	}
	rec := server.EnableTelemetry()

	client, err := New(Config{Name: "client", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	pl, err := policy.RemoteAt(ep)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Counter", pl)

	ref, err := client.InvokeStatic("Setup", "make")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := client.CallOn(ref, "bump"); err != nil {
			t.Fatal(err)
		}
	}
	cb := client.Endpoint("inproc")
	if cb == "" {
		t.Fatal("client did not volunteer a callback endpoint")
	}
	var found bool
	objs, _ := rec.NewWindow().Next()
	for _, s := range objs {
		if s.Anon != 0 {
			t.Fatalf("calls still anonymous: %+v", s)
		}
		if s.Callers[cb] >= 5 { // 5 bumps (+ the factory's init call)
			found = true
		}
	}
	if !found {
		t.Fatalf("server did not attribute affinity to the volunteered endpoint %s", cb)
	}

	// A migration toward the volunteered endpoint must now succeed —
	// the whole point of making pure-client affinity actionable.
	obj, ok := server.exports.Get(ref.O.Get(transform.ProxyFieldGUID).S)
	if !ok {
		t.Fatal("object not exported at server")
	}
	if err := server.Migrate(vm.RefV(obj), cb); err != nil {
		t.Fatalf("migration to volunteered endpoint: %v", err)
	}
	if got, err := client.CallOn(ref, "bump"); err != nil || got.I != 6 {
		t.Fatalf("post-migration bump: %v %v", got, err)
	}
}
