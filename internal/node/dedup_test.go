package node

import (
	"sync"
	"testing"

	"rafda/internal/policy"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// dedupSource is the shared program for the exactly-once tests: a
// counter whose bump is observably non-idempotent.
const dedupSource = `
class Cell {
    int n;
    Cell(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
    int slow(int us) { n = n + 1; sys.Clock.sleepMicros(us); return n; }
    int peek() { return n; }
}
class Mk {
    static Cell make() { return new Cell(0); }
}
class Main { static void main() {} }`

func dedupToken(caller string, seq uint64) *wire.CallToken {
	return &wire.CallToken{Caller: caller, Seq: seq}
}

// bumpReq builds a tokened OpInvoke of Cell.bump against guid.
func bumpReq(id uint64, guid, method string, tok *wire.CallToken) *wire.Request {
	return &wire.Request{ID: id, Op: wire.OpInvoke, GUID: guid, Method: method, Token: tok}
}

// TestDuplicateInvokeSuppressed drives the dispatcher directly with
// duplicate tokened deliveries: the second delivery must replay the
// recorded response without re-executing, and a delivery below the
// piggybacked ack watermark must be rejected, not executed.
func TestDuplicateInvokeSuppressed(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	g := n.exports.Ensure(ref.O)

	first := n.dispatch(bumpReq(1, g, "bump", dedupToken("c!1", 1)))
	if first.Err != "" || first.Result.Int != 1 {
		t.Fatalf("first delivery: %+v", first)
	}
	// Duplicate delivery (a transport retry): replayed, not re-executed.
	dup := n.dispatch(bumpReq(2, g, "bump", dedupToken("c!1", 1)))
	if dup.Err != "" || dup.Result.Int != 1 {
		t.Fatalf("duplicate replay: %+v", dup)
	}
	if dup.ID != 2 {
		t.Fatalf("replay kept the original wire id: %+v", dup)
	}
	if v, _ := n.CallOn(ref, "peek"); v.I != 1 {
		t.Fatalf("duplicate re-executed: counter %d", v.I)
	}
	// Next call acks seq 1; a later duplicate of seq 1 is stale.
	tok2 := dedupToken("c!1", 2)
	tok2.Ack = 1
	if resp := n.dispatch(bumpReq(3, g, "bump", tok2)); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	stale := n.dispatch(bumpReq(4, g, "bump", dedupToken("c!1", 1)))
	if stale.Err == "" {
		t.Fatalf("retired duplicate accepted: %+v", stale)
	}
	if v, _ := n.CallOn(ref, "peek"); v.I != 2 {
		t.Fatalf("stale duplicate executed: counter %d", v.I)
	}
	if r, st := count(n, "dedup.replay_hits"), count(n, "dedup.stale_rejected"); r != 1 || st != 1 {
		t.Fatalf("dedup counters: replay %d stale %d", r, st)
	}
}

// TestDuplicateCreateReturnsOriginalGUID pins the orphan fix the
// OpCreate retry exemption used to paper over: a duplicate tokened
// create replays the original response — same GUID — instead of
// constructing a second instance stranded in the export table.
func TestDuplicateCreateReturnsOriginalGUID(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if _, err := n.Serve("rrp", ""); err != nil {
		t.Fatal(err)
	}

	mk := func(id uint64) *wire.Response {
		return n.dispatch(&wire.Request{ID: id, Op: wire.OpCreate, Class: "Cell",
			Token: dedupToken("c!1", 1)})
	}
	first := mk(1)
	if first.Err != "" || first.Result.Kind != wire.KRef {
		t.Fatalf("create: %+v", first)
	}
	exportsAfterFirst := n.exports.Len()
	dup := mk(2)
	if dup.Err != "" || dup.Result.Kind != wire.KRef {
		t.Fatalf("duplicate create: %+v", dup)
	}
	if dup.Result.Ref.GUID != first.Result.Ref.GUID {
		t.Fatalf("duplicate create made a second instance: %s vs %s",
			dup.Result.Ref.GUID, first.Result.Ref.GUID)
	}
	if n.exports.Len() != exportsAfterFirst {
		t.Fatalf("duplicate create stranded an orphan export (%d -> %d)",
			exportsAfterFirst, n.exports.Len())
	}
}

// TestConcurrentDuplicateParks delivers the same tokened call from many
// goroutines at once: exactly one executes, the rest park behind it and
// replay its response.  Run under -race.
func TestConcurrentDuplicateParks(t *testing.T) {
	res := transformSource(t, dedupSource)
	n, err := New(Config{Name: "srv", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ref, err := n.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	g := n.exports.Ensure(ref.O)

	const dups = 8
	results := make(chan *wire.Response, dups)
	var wg sync.WaitGroup
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// slow(20000) holds the first attempt in flight long enough
			// for the rest to arrive while it executes.
			req := &wire.Request{ID: uint64(i), Op: wire.OpInvoke, GUID: g, Method: "slow",
				Args:  []wire.Value{{Kind: wire.KInt, Int: 20000}},
				Token: dedupToken("c!1", 1)}
			results <- n.dispatch(req)
		}(i)
	}
	wg.Wait()
	close(results)
	for resp := range results {
		if resp.Err != "" || resp.Result.Int != 1 {
			t.Fatalf("concurrent duplicate diverged: %+v", resp)
		}
	}
	if v, _ := n.CallOn(ref, "peek"); v.I != 1 {
		t.Fatalf("parked duplicates re-executed: counter %d", v.I)
	}
	if p, r := count(n, "dedup.parked"), count(n, "dedup.replay_hits"); p+r != dups-1 {
		t.Fatalf("suppression counters: parked %d replay %d", p, r)
	}
}

// TestDedupWindowTravelsWithMigration pins the tentpole's migration
// leg: the object's completed dedup entries ship inside the snapshot,
// so a post-migration duplicate of a call the old home already
// completed replays at the new home instead of re-executing.
func TestDedupWindowTravelsWithMigration(t *testing.T) {
	res := transformSource(t, dedupSource)
	a, b, endpoint := twoNodes(t, res, "rrp")

	ref, err := a.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	oldGUID := a.exports.Ensure(ref.O)

	// Serve one tokened call at the old home.
	first := a.dispatch(bumpReq(1, oldGUID, "bump", dedupToken("c!9", 1)))
	if first.Err != "" || first.Result.Int != 1 {
		t.Fatalf("pre-migration call: %+v", first)
	}

	// Migrate a -> b; the window slice must travel.
	if err := a.Migrate(ref, endpoint); err != nil {
		t.Fatal(err)
	}
	newRef := proxyRefOf(ref.O)
	if newRef == nil {
		t.Fatal("object did not morph into a forwarding proxy")
	}
	if got := count(b, "dedup.adopted"); got != 1 {
		t.Fatalf("adopted %d shipped entries, want 1", got)
	}

	// The duplicate arrives at the new home (as a forwarded retry
	// would, reusing its token): replayed, not re-executed.
	dup := b.dispatch(bumpReq(7, newRef.GUID, "bump", dedupToken("c!9", 1)))
	if dup.Err != "" || dup.Result.Int != 1 {
		t.Fatalf("post-migration duplicate: %+v", dup)
	}
	peek := b.dispatch(bumpReq(8, newRef.GUID, "peek", dedupToken("c!9", 2)))
	if peek.Err != "" || peek.Result.Int != 1 {
		t.Fatalf("counter after replay: %+v", peek)
	}
	// And the old home no longer holds the entry: its window shipped.
	if n := level(a, "dedup.entries"); n != 0 {
		t.Fatalf("old home kept %d shipped entries", n)
	}
}

// TestForwardedRetryReusesToken exercises the full wire path of the
// migration leg: a client proxy keeps calling through the old home
// after the object moved, and the forwarding hop must reuse the inbound
// token — the new home sees one logical call, not a fresh one.
func TestForwardedRetryReusesToken(t *testing.T) {
	res := transformSource(t, dedupSource)
	client, oldHome, _ := twoNodes(t, res, "rrp")
	newHome, err := New(Config{Name: "third", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { newHome.Close() })
	thirdEP, err := newHome.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}

	// Build the object at the old home, hand the client a proxy.
	ref, err := oldHome.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := oldHome.marshalValue(ref, "rrp")
	if err != nil {
		t.Fatal(err)
	}
	var clientRef vm.Value
	client.machine.Exec(func(env *vm.Env) {
		clientRef, err = client.unmarshalValue(env, mv)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CallOn(clientRef, "bump"); err != nil {
		t.Fatal(err)
	}
	if err := oldHome.Migrate(ref, thirdEP); err != nil {
		t.Fatal(err)
	}
	// The client's proxy still points at the old home: this call rides
	// client -> oldHome (forwarding proxy) -> newHome, and the forwarded
	// leg must carry the client's token, not a fresh one from oldHome.
	v, err := client.CallOn(clientRef, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 {
		t.Fatalf("forwarded bump returned %d want 2", v.I)
	}
	// The new home's window is keyed by the *client's* caller
	// incarnation: reused tokens mean no window for the old home's
	// issuer beyond the migration ops it sent directly.
	if level(newHome, "dedup.windows") == 0 {
		t.Fatal("new home recorded no caller windows")
	}
	if v, _ := client.CallOn(clientRef, "peek"); v.I != 2 {
		t.Fatalf("exactly-once violated across forwarding: counter %d", v.I)
	}
}

// TestLegacyPeerInteropWithoutTokens pins the server's tolerance of
// untokened inbound requests (the control plane's probes, rafdac's):
// they are served, bypass the dedup window entirely and keep the
// historical semantics — while a node, which stamps every call it sends,
// opens a window.
func TestLegacyPeerInteropWithoutTokens(t *testing.T) {
	res := transformSource(t, dedupSource)
	server, err := New(Config{Name: "server", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	endpoint, err := server.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}

	legacy, err := transport.NewRRP(transport.Options{}).Dial(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { legacy.Close() })
	created, err := legacy.Call(&wire.Request{ID: 1, Op: wire.OpCreate, Class: "Cell"})
	if err != nil || created.Err != "" || created.Result.Kind != wire.KRef {
		t.Fatalf("legacy create: %+v %v", created, err)
	}
	for i := int64(1); i <= 3; i++ {
		resp, err := legacy.Call(&wire.Request{ID: uint64(1 + i), Op: wire.OpInvoke,
			GUID: created.Result.Ref.GUID, Method: "bump"})
		if err != nil || resp.Err != "" {
			t.Fatalf("legacy bump %d: %+v %v", i, resp, err)
		}
		if resp.Result.Int != i {
			t.Fatalf("legacy bump %d returned %d", i, resp.Result.Int)
		}
	}
	if w := level(server, "dedup.windows"); w != 0 {
		t.Fatalf("legacy client opened %d dedup windows, want 0", w)
	}

	modern, err := New(Config{Name: "modern", Result: transformSource(t, dedupSource)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { modern.Close() })
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	modern.Policy().SetClass("Cell", pl)
	ref, err := modern.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modern.CallOn(ref, "bump"); err != nil {
		t.Fatal(err)
	}
	if level(server, "dedup.windows") == 0 {
		t.Fatal("tokened client opened no dedup window")
	}
}

// TestIssuerAckRetiresServerEntries drives a pipelined call sequence
// over the real wire and checks the piggybacked watermark actually
// retires server-side entries (bounded memory in steady state).
func TestIssuerAckRetiresServerEntries(t *testing.T) {
	res := transformSource(t, dedupSource)
	client, server, endpoint := twoNodes(t, res, "rrp")
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Cell", pl)
	ref, err := client.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := client.CallOn(ref, "bump"); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls ack as they go: all but the last few entries
	// must have retired via the watermark, far below the window cap.
	if n := level(server, "dedup.entries"); n > 3 {
		t.Fatalf("watermark retirement stalled: %d live entries after %d sequential calls", n, calls)
	}
	if count(server, "dedup.retired") == 0 {
		t.Fatal("no entries retired")
	}
}
