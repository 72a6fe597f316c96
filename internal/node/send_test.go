package node

import (
	"testing"
	"time"

	"rafda/internal/intercept"
	"rafda/internal/policy"
	"rafda/internal/trace"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// rawCall sends one request to endpoint over a fresh rrp connection,
// as an external caller would.
func rawCall(t *testing.T, endpoint string, req *wire.Request) *wire.Response {
	t.Helper()
	c, err := transport.NewRRP(transport.Options{}).Dial(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// recordArrivals installs a user interceptor on n that copies every
// inbound request of op onto the returned channel.  The buffer holds
// every arrival a test makes, so the interceptor never blocks a
// dispatch.
func recordArrivals(n *Node, op wire.Op) <-chan wire.Request {
	seen := make(chan wire.Request, 4)
	n.Use(func(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
		if cc.Req.Op == op {
			seen <- *cc.Req
		}
		return next(cc)
	})
	return seen
}

// arrival waits for the next request recordArrivals saw.
func arrival(t *testing.T, seen <-chan wire.Request) wire.Request {
	t.Helper()
	select {
	case req := <-seen:
		return req
	case <-time.After(5 * time.Second):
		t.Fatal("no request arrived")
		return wire.Request{}
	}
}

// checkForwarded asserts that a forwarded leg kept the originating
// call's token (attempt bumped), priority and a positive share of its
// deadline.
func checkForwarded(t *testing.T, what string, got wire.Request, budgetUs uint64) {
	t.Helper()
	if got.Token == nil || got.Token.Caller != "raw!1" || got.Token.Seq != 1 || got.Token.Attempt != 1 {
		t.Errorf("%s: token %+v, want the caller's raw!1/1 at attempt 1", what, got.Token)
	}
	if got.Priority != 2 {
		t.Errorf("%s: priority %d, want the caller's 2", what, got.Priority)
	}
	if got.DeadlineUs == 0 || got.DeadlineUs > budgetUs {
		t.Errorf("%s: deadline %dµs, want the remainder of the caller's %dµs", what, got.DeadlineUs, budgetUs)
	}
}

// TestForwardedLegsKeepPriorityAndDeadline sends a tokened, prioritised,
// deadlined call to the old home of a migrated object and a write to a
// replica: each hop forwards the same logical call, and the node that
// finally serves it must see the caller's priority and what is left of
// its budget, not a fresh call's defaults.
func TestForwardedLegsKeepPriorityAndDeadline(t *testing.T) {
	const budget = 5_000_000
	raw := func(guid string) *wire.Request {
		return &wire.Request{ID: 1, Op: wire.OpInvoke, GUID: guid, Method: "bump",
			Token: &wire.CallToken{Caller: "raw!1", Seq: 1}, Priority: 2, DeadlineUs: budget}
	}

	t.Run("gate-forward", func(t *testing.T) {
		res := transformSource(t, dedupSource)
		newHome, oldHome, oldEP := twoNodes(t, res, "rrp")
		newEP := newHome.Endpoint("rrp")
		ref, err := oldHome.InvokeStatic("Mk", "make")
		if err != nil {
			t.Fatal(err)
		}
		g := oldHome.exports.Ensure(ref.O)
		if err := oldHome.Migrate(ref, newEP); err != nil {
			t.Fatal(err)
		}
		seen := recordArrivals(newHome, wire.OpInvoke)
		if resp := rawCall(t, oldEP, raw(g)); resp.Err != "" || resp.Result.Int != 1 {
			t.Fatalf("forwarded bump: %+v", resp)
		}
		checkForwarded(t, "new home", arrival(t, seen), budget)
	})

	t.Run("replica-forward", func(t *testing.T) {
		home, readerA, _, coords, eps, obj, _, _ := replCluster(t, nil)
		if err := home.Replicate(vm.RefV(obj), eps[1]); err != nil {
			t.Fatal(err)
		}
		tickAll(coords, 4)
		primary, _ := home.exports.GUIDOf(obj)
		set, _ := coords[0].ReplicaSet(primary)
		if len(set.Replicas) != 1 {
			t.Fatalf("replica set %+v, want readerA alone", set)
		}
		rawEP, err := readerA.Serve("rrp", "")
		if err != nil {
			t.Fatal(err)
		}
		seen := recordArrivals(home, wire.OpInvoke)
		if resp := rawCall(t, rawEP, raw(set.Replicas[0].GUID)); resp.Err != "" || resp.Result.Int != 42 {
			t.Fatalf("write via replica: %+v", resp)
		}
		checkForwarded(t, "primary", arrival(t, seen), budget)
	})
}

// TestRemoteCreateCarriesTraceAndDeadline checks that make() under a
// remote placement is a leg of the creating execution like any call: a
// host-driven creation opens a client span whose trace the create's
// server span joins, and a creation inside a traced, deadlined dispatch
// stays on that trace and spends from that budget.
func TestRemoteCreateCarriesTraceAndDeadline(t *testing.T) {
	res := transformSource(t, dedupSource)
	client, server, endpoint := twoNodes(t, res, "rrp")
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Cell", pl)
	creates := recordArrivals(server, wire.OpCreate)

	// Host-driven: create remotely, then call the object.
	ref, err := client.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := client.CallOn(ref, "bump"); err != nil || v.I != 1 {
		t.Fatalf("bump after remote create: %v %v", v, err)
	}
	arrival(t, creates)
	var srv *trace.Span
	for _, s := range server.tracer.Spans() {
		if s.Kind == trace.KindServer && s.Name == "create" {
			srv = &s
		}
	}
	if srv == nil {
		t.Fatal("server recorded no create span")
	}
	var cli *trace.Span
	for _, s := range client.tracer.Spans() {
		if s.ID == srv.Parent {
			cli = &s
		}
	}
	if cli == nil || cli.Kind != trace.KindClient || cli.Name != "create" || cli.Trace != srv.Trace {
		t.Fatalf("create's server span (trace %x parent %x) is not under a client create span on the caller's trace: %+v",
			srv.Trace, srv.Parent, cli)
	}

	// Dispatched: the creating execution serves a traced, deadlined call.
	const budget = 5_000_000
	resp := rawCall(t, client.Endpoint("rrp"), &wire.Request{ID: 1, Op: wire.OpInvokeClass, Class: "Mk", Method: "make",
		Trace: wire.TraceContext{Trace: 0xfeed, Span: 0xbeef}, DeadlineUs: budget})
	if resp.Err != "" || resp.Result.Kind != wire.KRef {
		t.Fatalf("dispatched make: %+v", resp)
	}
	got := arrival(t, creates)
	if got.Trace.Trace != 0xfeed {
		t.Errorf("create leg trace %x, want the dispatched call's feed", got.Trace.Trace)
	}
	if got.DeadlineUs == 0 || got.DeadlineUs > budget {
		t.Errorf("create leg deadline %dµs, want the remainder of %dµs", got.DeadlineUs, budget)
	}
}
