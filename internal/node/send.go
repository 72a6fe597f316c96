package node

import (
	"rafda/internal/trace"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// leg is what send needs besides the request: where it goes and what
// it continues.
type leg struct {
	endpoint string
	key      string    // pool affinity key; "" takes the request's GUID
	parent   trace.Ctx // span context the leg continues
	// name, when set, opens a span of kind for the leg (target defaults
	// to the endpoint); otherwise the leg rides parent, as the migration
	// shipment and the barrier fan-out ride their callers' spans.
	kind               trace.Kind
	name, target, note string
	deadline           uint64 // remaining budget in µs; 0 for none
	// fwd is the inbound request this leg re-delivers as the same
	// logical call (a gate-forward hop, a replica's forward to its
	// primary): its token travels with the attempt bumped, its priority
	// unchanged.
	fwd *wire.Request
	// tok is storage the request owns for its token (the proxy call's
	// outCall); nil allocates one.
	tok *wire.CallToken
	// unlock is the sending execution, whose gates are released for the
	// send so callbacks can run meanwhile; nil for legs that must hold
	// their gate across it (the migration shipment and migrate-out).
	unlock *vm.Env
}

// send delivers req over one outbound leg and is the only place the
// node stamps a request (docs/CONCURRENCY.md §10, §15): the request id;
// the exactly-once token — fresh from the issuer, or the forwarded one
// with its attempt bumped (the copy keeps the inbound request's token
// immutable for its own replay path); the trace context; the deadline;
// a forwarded call's priority; and the pool affinity key, so one
// object's calls share one socket.  A fresh token rides the pool's
// persistent failover retry: the callee's dedup window makes a
// duplicate delivery replay the recorded response instead of executing
// twice, so even OpCreate and OpMigrateIn retry safely.  The leg's
// span, if it opens one, closes with the transport error or resp.Err.
func (n *Node) send(req *wire.Request, l leg) (*wire.Response, error) {
	req.ID = n.nextReqID()
	tok := l.tok
	if tok == nil {
		tok = new(wire.CallToken)
	}
	if l.fwd != nil && l.fwd.Token != nil {
		*tok = *l.fwd.Token
		tok.Attempt++
	} else {
		*tok = n.issuer.Issue()
		defer n.issuer.Finish(tok.Seq)
	}
	req.Token = tok
	if l.fwd != nil {
		req.Priority = l.fwd.Priority
	}
	var sp *trace.Span
	if l.name != "" {
		sp = n.startSpan(l.parent, l.kind, l.name, orString(l.target, l.endpoint))
		if sp != nil {
			sp.Note = l.note
			l.parent = sp.Ctx()
		}
	}
	req.Trace = wireCtx(l.parent)
	req.DeadlineUs = l.deadline
	key := l.key
	if key == "" {
		key = req.GUID // per-object calls keep wire order on one shard
	}
	var resp *wire.Response
	var err error
	if l.unlock != nil {
		l.unlock.RunUnlocked(func() { resp, err = n.callEndpoint(l.endpoint, key, req) })
	} else {
		resp, err = n.callEndpoint(l.endpoint, key, req)
	}
	if sp != nil && err != nil {
		n.finishSpan(sp, err.Error())
	} else if sp != nil {
		n.finishSpan(sp, resp.Err)
	}
	return resp, err
}

// callEndpoint performs one request through the shared connection pool,
// routed by affinity key ("" round-robins, with shard failover).  Gossip
// uses cache.Call (shard 0) instead, so its RTT samples always measure
// one stable socket.
func (n *Node) callEndpoint(endpoint, key string, req *wire.Request) (*wire.Response, error) {
	return n.cache.CallKey(endpoint, key, req)
}
