// Package intercept defines the composable dispatch interceptor chain
// the node's server-side call path is built from: a middleware pipeline
// in the dispatch(request, call_next) shape, precomposed once at
// construction so the per-call path is plain nested function calls —
// no per-call closure allocation, no slice walking, no interface
// dispatch beyond the function values themselves.
//
// Every server-side concern that used to be hard-wired inline in
// internal/node/dispatch.go — plane routing, overload shedding, dedup,
// tracing — is an Interceptor; user policies, added with Node.Use,
// splice into the same chain between the shedding tier and dedup.  Ordering rules are documented in
// docs/CONCURRENCY.md §16 and docs/INTERCEPT.md.
package intercept

import (
	"sync"

	"rafda/internal/wire"
)

// CallCtx is the per-call state threaded through the chain.  Req is the
// inbound request; everything else is server-local scratch the built-in
// interceptors and the dispatch root exchange.  A CallCtx is pooled by
// the chain and recycled after the response is produced — interceptors
// must not retain it past their return.
type CallCtx struct {
	// Req is the request being dispatched.  Interceptors may read any
	// field and may rewrite policy fields (priority, deadline) before
	// calling next, exactly as each hop already rewrites DeadlineUs.
	Req *wire.Request
	// SlotWaitUs is the dispatch-slot wait the transport measured for
	// this request (copied from Req.SlotWaitUs at chain entry): how
	// long the frame sat blocked on the inflight semaphore before a
	// slot opened.  The CoDel interceptor sheds on it.
	SlotWaitUs uint64
	// Served marks that the call ran (or expired) under an object
	// gate; QueueNs and SvcNs are the gate queue wait and method
	// service time measured there, and Expired marks a call whose
	// deadline ran out in the gate queue.  Written by the dispatch
	// root, read by the trace interceptor (and any user interceptor
	// below it) after next returns.
	Served  bool
	Expired bool
	QueueNs int64
	SvcNs   int64
}

func (cc *CallCtx) reset() {
	*cc = CallCtx{}
}

// Handler produces the response for a call: either the chain's root
// (the dispatch effect switch) or the tail of the chain from some
// interceptor's point of view.
type Handler func(*CallCtx) (*wire.Response, error)

// Interceptor wraps a Handler: it may short-circuit (return without
// calling next — a shed, a cached replay, a plane answer), pass through,
// or post-process next's response.  Calling next more than once is a
// contract violation.
type Interceptor func(cc *CallCtx, next Handler) (*wire.Response, error)

// Chain is a precomposed interceptor pipeline.  Composition happens
// once in New: each interceptor is folded into a closure capturing only
// (interceptor, next), so Dispatch is a straight nested call with zero
// per-call allocation beyond what the handlers themselves do.
type Chain struct {
	head Handler
	pool sync.Pool
}

// New composes ics around root, outermost first: New(root, a, b, c)
// runs a(b(c(root))).  The returned chain is immutable; build a new one
// to change the pipeline (rafda.Node.Use swaps chains atomically).
func New(root Handler, ics ...Interceptor) *Chain {
	composed := root
	for i := len(ics) - 1; i >= 0; i-- {
		ic := ics[i]
		next := composed
		composed = func(cc *CallCtx) (*wire.Response, error) {
			return ic(cc, next)
		}
	}
	c := &Chain{head: composed}
	c.pool.New = func() any { return new(CallCtx) }
	return c
}

// Dispatch runs req through the chain and renders the outcome as a wire
// response: an error escaping the chain becomes an infrastructure-error
// response (interceptors may equivalently build one themselves with
// wire.Errorf).  A nil response with a nil error is a contract
// violation and is reported as an error response too, so the transport
// always has a frame to write back.
func (c *Chain) Dispatch(req *wire.Request) *wire.Response {
	cc := c.pool.Get().(*CallCtx)
	cc.Req = req
	cc.SlotWaitUs = req.SlotWaitUs
	resp, err := c.head(cc)
	cc.reset()
	c.pool.Put(cc)
	switch {
	case err != nil:
		return wire.Errorf(req, "%v", err)
	case resp == nil:
		return wire.Errorf(req, "interceptor chain produced no response")
	}
	return resp
}
