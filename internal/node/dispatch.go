package node

import (
	"fmt"
	"time"

	"rafda/internal/guid"
	"rafda/internal/intercept"
	"rafda/internal/stdlib"
	"rafda/internal/telemetry"
	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// dispatch serves one incoming request.  Transports invoke it
// concurrently — the multiplexed RRP server runs one goroutine per
// in-flight request, and the HTTP transports one per connection — and
// requests proceed in parallel all the way through execution: an
// invocation synchronises only on its *target object's* gate
// (vm.ExecOn), so calls to different objects interleave freely while
// calls to the same object serialise with each other and with
// migrations of it.  Creation and migration adoption build objects not
// yet shared and run ungated (vm.Exec).  Counters are atomic, and the
// export/policy/singleton tables have their own synchronisation.
// Nested outgoing proxy calls release the execution's locks while
// blocked (Env.RunUnlocked), so re-entrant call chains between nodes —
// including callbacks targeting the original object — do not deadlock
// on invocation gates.  The exception is class initialisation
// (VM.initClass, which makes statics singletons): an execution that waits
// for another execution's initialisation deadlocks if that
// initialisation depends on the waiter through the wire
// (docs/CONCURRENCY.md §7).
//
// Structurally, dispatch runs the request through the node's
// interceptor chain (chain.go): counting and plane short-circuits, the
// proactive shedding tier, user interceptors, the dedup window and
// trace emission are all ordered interceptors around the effect switch
// (rootDispatch).  The chain pointer is swapped atomically by Use, so
// this is one atomic load plus the precomposed call path.
func (n *Node) dispatch(req *wire.Request) *wire.Response {
	return n.chain.Load().Dispatch(req)
}

func (n *Node) dispatchCreate(req *wire.Request) *wire.Response {
	if !n.result.Substitutable(req.Class) {
		return wire.Errorf(req, "node %s: class %s is not substitutable", n.name, req.Class)
	}
	n.creates.Inc()
	if rec := n.telem.Load(); rec != nil {
		rec.RecordCreateServed(req.Class, req.Caller)
	}
	resp := &wire.Response{ID: req.ID}
	// The new instance is not shared until its reference is marshalled
	// out, so construction needs no gate.
	n.machine.Exec(func(env *vm.Env) {
		val, thrown, err := env.Construct(transform.OLocal(req.Class), nil)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		if thrown != nil {
			resp.ExClass, resp.ExMsg = vm.ThrownMessage(thrown)
			return
		}
		mv, err := n.marshalValue(val, "")
		if err != nil {
			resp.Err = err.Error()
			return
		}
		resp.Result = mv
	})
	return resp
}

func (n *Node) dispatchInvoke(cc *intercept.CallCtx) *wire.Response {
	req := cc.Req
	resp := &wire.Response{ID: req.ID}
	var target *vm.Object
	classGUID := false
	if class, ok := guid.IsClassGUID(req.GUID); ok {
		me, ok := n.singletonTarget(resp, class)
		if !ok {
			return resp
		}
		target = me.O
		classGUID = true
	} else {
		obj, ok := n.exports.Get(req.GUID)
		if !ok {
			resp.Err = fmt.Sprintf("node %s: unknown object %s", n.name, req.GUID)
			return resp
		}
		target = obj
		// A replica copy serves provable reads itself (epoch-stamped)
		// and relays everything else to its primary.
		if rc, isReplica := n.replCopies.Load(req.GUID); isReplica {
			return n.serveAtReplica(cc, obj, rc.(*replicaCopy))
		}
	}
	// The gate is the whole scheduling story: requests for different
	// objects run here in parallel; requests for this object queue.  If
	// the object was migrated away while this request waited, the gate
	// opens onto a proxy and the call transparently forwards.
	ctx := n.servedInvoke(cc, resp, target, req.GUID, func(env *vm.Env) {
		n.invokeOn(env, resp, vm.RefV(target), req)
	})
	// Write barrier for replicated primaries: a completed write fans out
	// to every replica (evicting and lease-waiting the unreachable)
	// before this response — the acknowledgement — leaves, and the
	// response carries the epoch the write committed at.  One lock-free
	// map miss for everything unreplicated.  The barrier continues the
	// server span's trace, so fan-out update spans at the replicas hang
	// off the write that caused them.
	if !classGUID && resp.Err == "" {
		if _, replicated := n.replPrim.Load(req.GUID); replicated &&
			n.isWriter(target.ClassName(), req.Method, len(req.Args)) {
			if epoch := n.replicaWriteBarrier(target, req.GUID, ctx); epoch > 0 {
				resp.Epoch = epoch
			}
		}
	}
	// When the export is (now) a forwarding proxy, tell the caller where
	// the object went, so its proxy retargets and subsequent calls skip
	// the forwarding hop.  Without this, an adaptively migrated object
	// would be reached through its old home forever and the placement
	// loop could not converge (docs/ADAPTIVE.md).
	if !classGUID && resp.Err == "" {
		resp.Redirect = proxyRefOf(target)
	}
	return resp
}

// servedInvoke runs one inbound invocation under target's gate
// (retrying when the target is migrated away mid-call: the parked
// invocation unwinds with a MigrationInterrupt via ExecOnCatching and
// the retry forwards through the morphed proxy) and records the served
// call in the telemetry and trace planes.  The latency clock runs
// inside the gate — service time, not queueing — and the recording
// happens after the gate is released; with both planes disabled the
// whole cost is two nil checks.
//
// The trace plane emits the server span here: queue time (entry to
// inside-the-gate, including migration-retry unwinds) split from run
// time, and the span's context deposited as env baggage so every
// nested proxy call the execution makes — forwarding hops included —
// parents to it.  The returned context is that server span's (zero
// when untraced), for legs that continue the call after the gate
// releases, like the replica write barrier.  The gate measurements are
// deposited on cc for the trace interceptor (which owns the keyed
// percentile observation) and any user interceptor above it.
func (n *Node) servedInvoke(cc *intercept.CallCtx, resp *wire.Response, target *vm.Object, targetGUID string, call func(env *vm.Env)) trace.Ctx {
	req := cc.Req
	rec := n.telem.Load()
	var st *telemetry.ObjStats
	if rec != nil {
		st = rec.ForObject(target, targetGUID, transform.MarkOf(target.Class()).Base)
	}
	name := req.Method
	if name == "" {
		name = req.Op.String()
	}
	sp := n.startSpan(traceCtxOf(req), trace.KindServer, name, targetGUID)
	// Deadlined calls measure their gate wait even with both planes
	// disabled: the budget is charged for queueing, and a call whose
	// budget the queue consumed is rejected before its body runs
	// (docs/CONCURRENCY.md §15).  The transport's admission check
	// already charged network-side queueing; this is the dispatch-side
	// leg of the same decrement chain.
	deadlined := req.DeadlineUs > 0
	start := int64(0)
	if sp != nil {
		start = sp.Start
	} else if deadlined {
		start = time.Now().UnixNano()
	}
	expired := false
	var svc, queue time.Duration
	for attempt := 0; ; attempt++ {
		*resp = wire.Response{ID: req.ID}
		interrupted := n.machine.ExecOnCatching(target, func(env *vm.Env) {
			// Forwarding hop: when the gate opened onto a proxy (the
			// object migrated away), the nested proxy call re-sends the
			// *same logical call* to the new home, so it must reuse the
			// inbound token rather than stamp a fresh one — the new
			// home's adopted window then recognises a duplicate of work
			// the old home already completed — and keep its priority.
			// The class check is stable here: migration morphs only
			// under this gate.
			if transform.MarkOf(target.Class()).Kind.Proxy() {
				env.SetForward(req)
			}
			if sp != nil {
				env.SetTraceCtx(sp.Trace, sp.ID)
			}
			if st != nil || sp != nil || deadlined {
				t0 := time.Now()
				if sp != nil || deadlined {
					// Queue is everything between the span's Start and this
					// execution actually entering the gate, minus service
					// time already spent in interrupted attempts — derived
					// from t0, so the split costs no extra clock read.
					queue = time.Duration(t0.UnixNano() - start - int64(svc))
				}
				if deadlined {
					remaining := int64(req.DeadlineUs) - int64(queue/time.Microsecond)
					if remaining <= 0 {
						expired = true
						return // before the deferred svc accrual: no body ran
					}
					// Nested proxy calls stamp what's left of the budget
					// onto their outbound requests.
					env.SetDeadlineUs(uint64(remaining))
				}
				defer func() { svc += time.Since(t0) }()
			}
			call(env)
		})
		if expired {
			n.expiries.Inc()
			resp.Err = fmt.Sprintf("node %s: %s deadline expired in gate queue (budget %dµs, waited %v)",
				n.name, name, req.DeadlineUs, queue.Round(time.Microsecond))
			break
		}
		if !interrupted {
			break
		}
		if attempt >= vm.MaxMigrationRetries {
			resp.Err = fmt.Sprintf("node %s: %s abandoned: target migrated %d times mid-call",
				n.name, req.Method, attempt+1)
			break
		}
	}
	var ctx trace.Ctx
	if sp != nil {
		ctx = sp.Ctx()
		sp.Queue = int64(queue)
		sp.Dur = int64(svc)
		sp.Err = resp.Err
		n.tracer.Emit(sp)
	}
	if st != nil {
		st.RecordInbound(req.Caller, telemetry.RequestSize(req), telemetry.ResponseSize(resp), svc)
		// Effect classification feeds the replication rule: provable
		// reads versus (conservatively) everything else.
		st.RecordEffect(n.isWriter(target.ClassName(), req.Method, len(req.Args)))
	}
	// Deposit the gate measurements for the chain's trace interceptor,
	// which performs the keyed percentile observation after this
	// returns (ObserveCall used to live here; moving it keeps every
	// dispatch-plane emission in one tier).
	cc.Served = true
	cc.Expired = expired
	cc.QueueNs = int64(queue)
	cc.SvcNs = int64(svc)
	return ctx
}

// singletonTarget resolves (creating on first use) the local statics
// singleton for class, before any gate is taken — singleton creation
// executes program code and must not nest inside another object's gate.
// On failure it fills resp and returns false.
func (n *Node) singletonTarget(resp *wire.Response, class string) (vm.Value, bool) {
	var me vm.Value
	var thrown *vm.Thrown
	var err error
	n.machine.Exec(func(env *vm.Env) {
		me, thrown, err = n.localSingleton(env, class)
	})
	if err != nil {
		resp.Err = err.Error()
		return vm.Value{}, false
	}
	if thrown != nil {
		resp.ExClass, resp.ExMsg = vm.ThrownMessage(thrown)
		return vm.Value{}, false
	}
	if me.O == nil {
		resp.Err = fmt.Sprintf("node %s: nil singleton for %s", n.name, class)
		return vm.Value{}, false
	}
	return me, true
}

// invokeOn performs the call on a resolved receiver and fills resp.  The
// caller holds the receiver's invocation gate.
func (n *Node) invokeOn(env *vm.Env, resp *wire.Response, recv vm.Value, req *wire.Request) {
	// Calls copy their arguments onto the execution's slab, so the common
	// short argument list converts on the stack.
	var buf [4]vm.Value
	args := buf[:]
	if len(req.Args) > len(buf) {
		args = make([]vm.Value, len(req.Args))
	}
	args = args[:len(req.Args)]
	for i, wv := range req.Args {
		av, err := n.unmarshalValue(env, wv)
		if err != nil {
			resp.Err = err.Error()
			return
		}
		args[i] = av
	}
	if recv.O == nil {
		resp.Err = "nil receiver"
		return
	}
	res, thrown, err := env.Call(recv.O.ClassName(), req.Method, recv, args)
	if err != nil {
		resp.Err = err.Error()
		return
	}
	if thrown != nil {
		resp.ExClass, resp.ExMsg = vm.ThrownMessage(thrown)
		return
	}
	mv, err := n.marshalValue(res, "")
	if err != nil {
		resp.Err = err.Error()
		return
	}
	resp.Result = mv
}

func (n *Node) dispatchMigrateIn(req *wire.Request) *wire.Response {
	if !n.result.Substitutable(req.Class) {
		return wire.Errorf(req, "node %s: cannot adopt non-substitutable class %s", n.name, req.Class)
	}
	n.migIn.Inc()
	return n.adopt(req, func(g string) {
		// Adopt the object's shipped dedup history under its GUID: a
		// caller's retry of a call the old home already completed
		// replays its recorded response instead of executing twice.
		if len(req.Dedup) > 0 {
			n.dedupTab.Adopt(g, req.Dedup)
		}
	})
}

// adopt rebuilds the object a migration or a replica install ships — a
// new local instance of req.Class holding req.Fields — exports it, and
// answers with its reference; adopted runs in the same execution with
// the object's GUID.  Like creation, the object is unshared until its
// reference is returned, so the rebuild runs ungated.  A field the class
// does not declare, or a value that does not fit one, is an error for
// the peer, and nothing is exported.
func (n *Node) adopt(req *wire.Request, adopted func(g string)) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	n.machine.Exec(func(env *vm.Env) {
		obj, err := env.New(transform.OLocal(req.Class))
		if err != nil {
			resp.Err = err.Error()
			return
		}
		if err := n.setFields(env, obj, req.Fields); err != nil {
			resp.Err = err.Error()
			return
		}
		mv, err := n.marshalValue(vm.RefV(obj), "")
		if err != nil {
			resp.Err = err.Error()
			return
		}
		resp.Result = mv
		if g, ok := n.exports.GUIDOf(obj); ok {
			adopted(g)
		}
	})
	return resp
}

// dispatchMigrateOut serves a holder's request to move one of our
// objects elsewhere: migrate it (morphing our copy into a forwarding
// proxy) and return the new reference.
func (n *Node) dispatchMigrateOut(req *wire.Request) *wire.Response {
	obj, ok := n.exports.Get(req.GUID)
	if !ok {
		return wire.Errorf(req, "node %s: unknown object %s", n.name, req.GUID)
	}
	// Already forwarding?  Then the object moved on; report its current
	// location so the caller can retarget (and retry there if needed).
	if ref := proxyRefOf(obj); ref != nil {
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KRef, Ref: ref}}
	}
	if err := n.migrate(vm.RefV(obj), req.Endpoint, traceCtxOf(req)); err != nil {
		return wire.Errorf(req, "%v", err)
	}
	// After Migrate the object is a proxy holding the new location.
	return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KRef, Ref: proxyRefOf(obj)}}
}

// localSingleton returns the local statics singleton for class,
// regardless of this node's own policy — a remote caller's policy decided
// the singleton lives here — and exports it under the class GUID.  The
// singleton is A_C_Local's static, made by that class's initialisation,
// which runs the class's own initialiser too: the VM runs it once and
// makes every other execution wait, its gates parked, until it has
// finished (VM.initClass).
func (n *Node) localSingleton(env *vm.Env, class string) (vm.Value, *vm.Thrown, error) {
	local := transform.CLocal(class)
	if !n.machine.Program().Has(local) {
		return vm.Value{}, nil, fmt.Errorf("node %s: no statics implementation for %s", n.name, class)
	}
	me, thrown, err := env.Call(local, transform.SingletonGet, vm.Value{}, nil)
	if thrown != nil || err != nil {
		return vm.Value{}, thrown, err
	}
	if _, ok := n.exports.GUIDOf(me.O); !ok {
		n.exports.Put(guid.ClassGUID(class), me.O)
	}
	return me, nil, nil
}

// remoteError builds the sys.RemoteException thrown when infrastructure
// fails — the paper's §4 network-failure caveat surfacing in-program.
func remoteError(env *vm.Env, format string, a ...any) *vm.Thrown {
	return env.Throw(stdlib.RemoteExceptionClass, fmt.Sprintf(format, a...))
}
