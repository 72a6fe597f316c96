package node

import (
	"fmt"
	"time"

	"rafda/internal/trace"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// Trace emission glue: where the node runtime meets the flight
// recorder.  Every helper here is nil-safe (a NoTrace node pays one
// nil check per site) and lock-free — emission may run inside object
// gates, under the replication fan-out mutex, or on transport
// goroutines (docs/CONCURRENCY.md §14).

// traceCtxOf lifts a request's wire-level span context into the
// recorder's form; zero when the request rides untraced.
func traceCtxOf(req *wire.Request) trace.Ctx {
	return trace.Ctx{Trace: req.Trace.Trace, Span: req.Trace.Span}
}

// wireCtx renders a span context for the request that continues it.
func wireCtx(ctx trace.Ctx) wire.TraceContext {
	return wire.TraceContext{Trace: ctx.Trace, Span: ctx.Span}
}

// envCtx reads the span context the current execution was started
// under (deposited by servedInvoke); zero for host-driven executions,
// which root a fresh trace at their first remote send.
func envCtx(env *vm.Env) trace.Ctx {
	traceID, spanID := env.TraceCtx()
	return trace.Ctx{Trace: traceID, Span: spanID}
}

// startSpan builds (but does not emit) a span continuing ctx — rooting
// a new trace when ctx is zero — with Start stamped now.  Returns nil
// when tracing is disabled, and every later use is nil-safe.
func (n *Node) startSpan(ctx trace.Ctx, kind trace.Kind, name, target string) *trace.Span {
	tr := n.tracer
	if tr == nil {
		return nil
	}
	if ctx.Trace == 0 {
		ctx.Trace = tr.NewID()
	}
	sp := tr.NewSpan()
	sp.Trace = ctx.Trace
	sp.ID = tr.NewID()
	sp.Parent = ctx.Span
	sp.Kind = kind
	sp.Name = name
	sp.Target = target
	sp.Start = time.Now().UnixNano()
	return sp
}

// finishSpan stamps the span's duration and error and emits it.  The
// span must not be touched afterwards.
func (n *Node) finishSpan(sp *trace.Span, errMsg string) {
	if sp == nil {
		return
	}
	sp.Dur = time.Now().UnixNano() - sp.Start
	sp.Err = errMsg
	n.tracer.Emit(sp)
}

// emitDedup records a duplicate-delivery verdict (replay, park or
// stale) as a zero-duration event span on the duplicate's own trace,
// so a call tree shows which attempt executed and which were absorbed
// by the dedup window.
func (n *Node) emitDedup(req *wire.Request, verdict string) {
	tr := n.tracer
	if tr == nil {
		return
	}
	sp := n.startSpan(traceCtxOf(req), trace.KindDedup, verdict, req.GUID)
	sp.Note = fmt.Sprintf("%s/%d attempt %d", req.Token.Caller, req.Token.Seq, req.Token.Attempt)
	tr.Emit(sp)
}

// emitFailover is the transport pool's FailoverFunc: each failed
// delivery attempt in a shard-failover loop becomes an event span on
// the trace of the request that was being delivered.
func (n *Node) emitFailover(endpoint string, shard, attempt int, tctx wire.TraceContext, err error) {
	tr := n.tracer
	if tr == nil {
		return
	}
	sp := n.startSpan(trace.Ctx{Trace: tctx.Trace, Span: tctx.Span}, trace.KindFailover, "failover",
		fmt.Sprintf("%s#%d", endpoint, shard))
	sp.Note = fmt.Sprintf("attempt %d", attempt)
	sp.Err = err.Error()
	tr.Emit(sp)
}
