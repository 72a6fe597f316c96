package node

import (
	"slices"

	"rafda/internal/dedup"
	"rafda/internal/intercept"
	"rafda/internal/trace"
	"rafda/internal/wire"
)

// The node's dispatch pipeline, assembled from internal/intercept: every
// server-side concern that used to be hard-wired inline in dispatch()
// is an ordered interceptor around the effect switch.  The fixed order
// (docs/CONCURRENCY.md §16, docs/INTERCEPT.md):
//
//	plane → priority-shed → fair-share → CoDel → user… → dedup → trace → effect switch
//
// Two placements are load-bearing.  The shedding tier runs after the
// plane interceptor — ping, gossip and introspection must stay
// answerable while the node is refusing work, or overload would blind
// the very observability used to diagnose it — and strictly before
// dedup Begin: a shed recorded as a logical call's replay response
// would be replayed to every retry, turning one refusal into a
// permanent failure.  User interceptors sit between shedding and
// dedup, so they see only admitted traffic and their responses are
// never captured by the replay cache either.

// buildChain composes the node's dispatch chain around the effect
// switch with the given user interceptors spliced in.
func (n *Node) buildChain(user []intercept.Interceptor) *intercept.Chain {
	ics := make([]intercept.Interceptor, 0, 4+len(user))
	ics = append(ics, n.planeInterceptor)
	ics = append(ics, n.shedIcs...)
	ics = append(ics, user...)
	ics = append(ics, n.dedupInterceptor, n.traceInterceptor)
	return intercept.New(n.rootDispatch, ics...)
}

// Use appends interceptors to the user tier and atomically swaps in a
// rebuilt chain.  Safe to call while the node is serving: in-flight
// calls finish on the chain they started on.  The built-in tiers
// (including the shedding policies' live state) are reused, not
// rebuilt.
func (n *Node) Use(ics ...intercept.Interceptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.userIcs = append(n.userIcs, ics...)
	n.chain.Store(n.buildChain(slices.Clone(n.userIcs)))
}

// planeInterceptor is the outermost tier.  It counts every inbound
// request, a plane op into node.plane_in and any other into
// node.calls_in, and short-circuits the effect-free plane ops.  They
// never carry tokens, skip the dedup window, and — by running above the
// shedding tier — stay answerable under overload.
func (n *Node) planeInterceptor(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
	req := cc.Req
	var resp *wire.Response
	switch req.Op {
	case wire.OpPing:
		resp = &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: n.name}}
	case wire.OpGossip:
		resp = n.dispatchGossip(req)
	case wire.OpIntrospect:
		resp = n.dispatchIntrospect(req)
	default:
		n.callsIn.Inc()
		return next(cc)
	}
	n.planeIn.Inc()
	return resp, nil
}

// dedupInterceptor guards the side-effectful tiers below it with the
// dedup window (docs/CONCURRENCY.md §10).  First delivery of a tokened
// call executes and records its response; a duplicate of an in-flight
// call parks inside Begin until the first attempt completes; a
// duplicate of a completed call replays the recorded response; a
// duplicate of a retired call is rejected — never re-executed.
// Untokened requests — the control plane's ping, gossip and introspect
// probes, and rafdac's — keep the at-least-once path.  Each suppressed
// duplicate leaves a dedup event span on the call's trace, so a call
// tree shows which delivery executed and which were absorbed.
func (n *Node) dedupInterceptor(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
	req := cc.Req
	if req.Token == nil {
		return next(cc)
	}
	// The entry records its target, so migration can ship the object's
	// slice of the window along with it (dedup.Table.ExtractFor).
	e, verdict, parked := n.dedupTab.BeginObserved(req.Token, req.GUID)
	switch verdict {
	case dedup.Stale:
		n.emitDedup(req, "stale")
		return wire.Errorf(req, "node %s: duplicate of retired call %s/%d rejected",
			n.name, req.Token.Caller, req.Token.Seq), nil
	case dedup.Replay:
		if parked {
			n.emitDedup(req, "park")
		} else {
			n.emitDedup(req, "replay")
		}
		return e.Response(req.ID), nil
	}
	resp, err := next(cc)
	if resp == nil {
		// An inner tier erred without building a response; render it
		// here so the window completes with what the caller will see.
		if err != nil {
			resp = wire.Errorf(req, "%v", err)
			err = nil
		} else {
			resp = wire.Errorf(req, "interceptor chain produced no response")
		}
	}
	n.dedupTab.Complete(req.Token.Caller, e, resp)
	return resp, err
}

// traceInterceptor owns the trace plane's dispatch-level emissions:
// server spans for the effectful ops that do not run through an object
// gate (creation, migration adoption, replica maintenance), and the
// keyed-percentile observation for gated invocations (whose server
// span the gate path itself emits — the queue/run split is only
// measurable there, which is also why this tier sits inside dedup:
// absorbed duplicates emit dedup event spans, never server spans).
func (n *Node) traceInterceptor(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
	req := cc.Req
	switch req.Op {
	case wire.OpInvoke:
		resp, err := next(cc)
		// The SLO plane's keyed view: served-call latency by method and
		// by caller identity.  Expired calls never ran, so they would
		// only pollute the service-time distributions.
		if cc.Served && !cc.Expired {
			name := req.Method
			if name == "" {
				name = req.Op.String()
			}
			n.tracer.ObserveCall(name, req.Caller, cc.SvcNs)
		}
		return resp, err
	case wire.OpCreate, wire.OpMigrateIn, wire.OpReplicaInstall, wire.OpReplicaUpdate, wire.OpReplicaDrop:
		// Migrate-out is deliberately absent: the migration path emits
		// its own richer drain/ship/morph spans.
		if n.tracer == nil {
			return next(cc)
		}
		sp := n.startSpan(traceCtxOf(req), trace.KindServer, req.Op.String(), req.GUID)
		resp, err := next(cc)
		msg := ""
		switch {
		case resp != nil:
			msg = resp.Err
		case err != nil:
			msg = err.Error()
		}
		n.finishSpan(sp, msg)
		return resp, err
	default:
		return next(cc)
	}
}

// rootDispatch is the chain's root: the side-effectful op switch.
func (n *Node) rootDispatch(cc *intercept.CallCtx) (*wire.Response, error) {
	req := cc.Req
	switch req.Op {
	case wire.OpCreate:
		return n.dispatchCreate(req), nil

	case wire.OpInvoke:
		return n.dispatchInvoke(cc), nil

	case wire.OpMigrateIn:
		return n.dispatchMigrateIn(req), nil

	case wire.OpMigrateOut:
		return n.dispatchMigrateOut(req), nil

	case wire.OpReplicaInstall:
		return n.dispatchReplicaInstall(req), nil

	case wire.OpReplicaUpdate:
		return n.dispatchReplicaUpdate(req), nil

	case wire.OpReplicaDrop:
		return n.dispatchReplicaDrop(req), nil

	default:
		return wire.Errorf(req, "node %s: unsupported op %v", n.name, req.Op), nil
	}
}
