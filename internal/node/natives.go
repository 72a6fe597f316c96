package node

import (
	"strings"
	"time"

	"rafda/internal/guid"
	"rafda/internal/ir"
	"rafda/internal/policy"
	"rafda/internal/telemetry"
	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// registerFactoryNatives binds make and discover for every transformed
// class.  These are the paper's only implementation-aware methods: they
// consult the policy table and build either local implementations or
// proxies.
func (n *Node) registerFactoryNatives() {
	for _, class := range n.result.Transformed {
		class := class
		n.machine.RegisterNative(transform.OFactory(class), transform.MakeMethod, 0,
			func(env *vm.Env, _ vm.Value, _ []vm.Value) (vm.Value, *vm.Thrown, error) {
				pl, _ := n.pol.For(class)
				if pl.Kind != policy.Remote {
					if rec := n.telem.Load(); rec != nil {
						rec.RecordCreateLocal(class)
					}
					return env.Construct(transform.OLocal(class), nil)
				}
				if rec := n.telem.Load(); rec != nil {
					rec.RecordCreateRemote(class, pl.Endpoint)
				}
				return n.remoteCreate(env, class, pl)
			})
		n.machine.RegisterNative(transform.CFactory(class), transform.DiscoverMethod, 0,
			func(env *vm.Env, _ vm.Value, _ []vm.Value) (vm.Value, *vm.Thrown, error) {
				return n.discover(env, class)
			})
	}
}

// remoteCreate implements make() under a remote placement: ask the
// placement's node to instantiate the class and wrap the returned
// reference in a proxy.  The subsequent factory init call runs locally
// and initialises the remote object through the proxy's properties.
func (n *Node) remoteCreate(env *vm.Env, class string, pl policy.Placement) (vm.Value, *vm.Thrown, error) {
	req := &wire.Request{ID: n.nextReqID(), Op: wire.OpCreate, Class: class, Caller: n.callerEndpoint(pl.Proto)}
	resp, callErr := n.callRemote(env, pl.Endpoint, req)
	if callErr != nil {
		return vm.Value{}, remoteError(env, "create %s at %s: %v", class, pl.Endpoint, callErr), nil
	}
	if resp.Err != "" {
		return vm.Value{}, remoteError(env, "create %s: %s", class, resp.Err), nil
	}
	if resp.ExClass != "" {
		return vm.Value{}, n.rethrow(env, resp), nil
	}
	val, err := n.unmarshalValue(env, resp.Result)
	if err != nil {
		return vm.Value{}, remoteError(env, "create %s: %v", class, err), nil
	}
	return val, nil, nil
}

// discover implements the class factory's discover(): local singleton or
// statics proxy per policy.  The local kind is localSingleton's entry —
// only that entry knows whether initialisation has finished, so nothing
// else caches it.  A statics proxy is cached in the same table until the
// policy version changes (so run-time re-policy takes effect — §4 dynamic
// reconfiguration); concurrent discoveries at one policy version converge
// on one cached value.
func (n *Node) discover(env *vm.Env, class string) (vm.Value, *vm.Thrown, error) {
	pl, ver := n.pol.For(class)
	if pl.Kind != policy.Remote {
		return n.localSingleton(env, class)
	}
	key := "discover:" + class
	n.singMu.Lock()
	if e, ok := n.singletons[key]; ok && e.version == ver {
		val := e.val
		n.singMu.Unlock()
		return val, nil, nil
	}
	n.singMu.Unlock()
	proxyClass := transform.CProxy(class, pl.Proto)
	if !n.machine.Program().Has(proxyClass) {
		return vm.Value{}, remoteError(env, "no %s proxy generated for statics of %s", pl.Proto, class), nil
	}
	obj, err := env.New(proxyClass)
	if err != nil {
		return vm.Value{}, nil, err
	}
	setProxyFields(obj, guid.ClassGUID(class), pl.Endpoint, pl.Proto, class)
	me := vm.RefV(obj)
	n.singMu.Lock()
	n.singletons[key] = &singletonEntry{val: me, valSet: true, version: ver}
	n.singMu.Unlock()
	return me, nil, nil
}

// registerProxyNatives binds the class-level native handler of every
// generated proxy class: each method call marshals its arguments, sends
// an invocation over the proxy's transport, and unmarshals the reply.
func (n *Node) registerProxyNatives() {
	for _, c := range n.result.Program.Classes() {
		classSide := strings.HasPrefix(c.Meta, "generated:c-proxy:")
		if !classSide && !strings.HasPrefix(c.Meta, "generated:o-proxy:") {
			continue
		}
		n.machine.RegisterClassNative(c.Name, func(env *vm.Env, method string, recv vm.Value, args []vm.Value) (vm.Value, *vm.Thrown, error) {
			return n.proxyInvoke(env, classSide, method, recv, args)
		})
	}
}

// proxyTripleFields is the proxy reference triple proxyInvoke reads on
// every call, in ReadFields order.
var proxyTripleFields = [3]string{
	transform.ProxyFieldEndpoint,
	transform.ProxyFieldTarget,
	transform.ProxyFieldGUID,
}

// proxyInvoke performs one remote method invocation on behalf of a proxy
// object.
func (n *Node) proxyInvoke(env *vm.Env, classSide bool, method string, recv vm.Value, args []vm.Value) (vm.Value, *vm.Thrown, error) {
	if recv.O == nil {
		return vm.Value{}, remoteError(env, "proxy invocation on null"), nil
	}
	// Consume forwarded-token baggage first, whichever path the call
	// takes below: this execution is a forwarding hop for an inbound
	// tokened call (the dispatcher deposited the token when the gate
	// opened onto a proxy), and the re-send must reuse that token so the
	// new home recognises a duplicate of work the old home already
	// completed.  Taking it unconditionally keeps it from leaking into a
	// later nested call of the same execution.
	fwd, _ := env.TakeForward().(*wire.CallToken)
	// One consistent snapshot of the proxy's reference triple: a
	// concurrent retarget (migration) can never hand us the GUID of one
	// home and the endpoint of another.  ReadFields is the
	// allocation-free form of View — this runs on every proxy call.
	var triple [3]vm.Value
	recv.O.ReadFields(proxyTripleFields[:], triple[:])
	endpoint := triple[0].S
	target := triple[1].S
	id := triple[2].S

	// Directory-first resolution: when this node is in a cluster and the
	// placement directory knows a fresher home for the object, retarget
	// the proxy *before* dialling.  The directory is chain-collapsed, so
	// a reference N migrations stale jumps straight to the final home —
	// without this, each call would walk the whole Response.Redirect
	// forwarding chain one hop at a time (and pay every intermediate
	// node once more).  Costs one atomic load when not clustered.
	if !classSide {
		if ref, ok := n.resolveViaDirectory(id, endpoint); ok {
			if p, _, err := splitProto(ref.Endpoint); err == nil {
				setProxyFields(recv.O, ref.GUID, ref.Endpoint, p, orString(ref.Target, target))
				id, endpoint = ref.GUID, ref.Endpoint
			}
		}
	}

	// Read routing (docs/REPLICATION.md): a provably read-only call on a
	// replicated object is served by the nearest lease-valid replica —
	// this node's own copy when it holds one, else a live remote replica
	// — instead of the primary.  The retarget is per-call: the proxy's
	// stored reference keeps naming the primary, because writes must
	// keep serialising there.  Effect classification keys on the proxy
	// class itself (the alias hook gave proxy natives their local twins'
	// effects), so this is two map reads plus one atomic load; routing
	// is skipped when the proxy points at this very node (the
	// self-collapse below serves primary-fresh state directly).
	routedRead := false
	if !classSide && n.effects.ReadOnly(recv.O.ClassName(), ir.MethodKey(method, len(args))) {
		if co := n.coord.Load(); co != nil {
			if route, ok := co.ReadTarget(id); ok {
				switch {
				case route.Local:
					if obj, exp := n.exports.Get(route.GUID); exp {
						if rec := n.telem.Load(); rec != nil {
							st := rec.ForObject(obj, route.GUID, target)
							st.RecordLocal()
							st.RecordEffect(false)
						}
						return env.CallGated(obj, method, args)
					}
				case route.Endpoint != "" && route.Endpoint != endpoint && !n.servesEndpoint(endpoint):
					id, endpoint = route.GUID, route.Endpoint
					routedRead = true
				}
			}
		}
	}
	proto, _, _ := splitProto(endpoint)

	// A proxy can end up pointing at this very node (e.g. after an
	// object is migrated back home): collapse to a direct call.  The
	// collapsed call still acquires the target's invocation gate
	// (re-entrantly if this execution already holds it), so it keeps the
	// same monitor semantics it would have had arriving over the wire.
	// Telemetry counts it as a local call — this is the steady-state
	// path after an adaptive migration lands the object next to its
	// caller, so it stays clock-free.
	if n.servesEndpoint(endpoint) {
		if classSide {
			me, thrown, err := n.localSingleton(env, target)
			if thrown != nil || err != nil {
				return vm.Value{}, thrown, err
			}
			if rec := n.telem.Load(); rec != nil {
				rec.ForObject(me.O, guid.ClassGUID(target), target).RecordLocal()
			}
			return env.CallGated(me.O, method, args)
		}
		if obj, ok := n.exports.Get(id); ok {
			writer := n.isWriter(obj.ClassName(), method, len(args))
			if rec := n.telem.Load(); rec != nil {
				st := rec.ForObject(obj, id, target)
				st.RecordLocal()
				st.RecordEffect(writer)
			}
			res, thrown, callErr := env.CallGated(obj, method, args)
			// A collapsed write on a replicated primary fans out before
			// returning, like any dispatched write.  RunUnlocked releases
			// this execution's locks while the barrier re-acquires the
			// object's gate for its snapshot.
			if callErr == nil && writer && n.replActive.Load() {
				if _, replicated := n.replPrim.Load(id); replicated {
					env.RunUnlocked(func() { n.replicaWriteBarrier(obj, id, envCtx(env)) })
				}
			}
			return res, thrown, callErr
		}
		return vm.Value{}, remoteError(env, "%s.%s: stale self-reference %s", target, method, id), nil
	}

	req := &wire.Request{ID: n.nextReqID(), Method: method, Caller: n.callerEndpoint(proto)}
	if fwd != nil {
		// Same logical call, next physical delivery: copy the inbound
		// token with the attempt ordinal bumped (the copy keeps the
		// original request's token immutable for its own replay path).
		t := *fwd
		t.Attempt++
		req.Token = &t
	}
	if classSide {
		req.Op = wire.OpInvokeClass
		req.Class = target
	} else {
		req.Op = wire.OpInvoke
		req.GUID = id
	}
	req.Args = make([]wire.Value, len(args))
	for i, a := range args {
		mv, err := n.marshalValue(a, proto)
		if err != nil {
			return vm.Value{}, remoteError(env, "marshal argument %d of %s.%s: %v", i+1, target, method, err), nil
		}
		req.Args[i] = mv
	}

	n.stats.remoteCallsOut.Add(1)
	rec := n.telem.Load()
	// Client span: parented to the server span that started this
	// execution (env baggage) so the remote leg joins the inbound
	// call's trace — or rooting a fresh trace for host-driven calls.
	// The context rides the request, so the callee's server span (and
	// any failover spans the pool emits en route) parent to this one.
	sp := n.startSpan(envCtx(env), trace.KindClient, method, endpoint)
	if sp != nil {
		if routedRead {
			sp.Note = "routed-read"
		}
		req.Trace = wireCtx(sp)
	}
	// Deadline propagation: an execution started by a deadlined dispatch
	// carries its remaining budget as env baggage (already charged for
	// this node's queue and gate waits); stamp it on the outbound leg so
	// the next hop's admission and gate checks spend from the same
	// budget (docs/OBSERVABILITY.md).
	req.DeadlineUs = env.DeadlineUs()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	resp, callErr := n.callRemote(env, endpoint, req)
	if sp != nil {
		// Dur from the span's own Start stamp — no second clock read on
		// the traced path when telemetry is off.
		sp.Dur = time.Now().UnixNano() - sp.Start
		if callErr != nil {
			sp.Err = callErr.Error()
		} else if resp.Err != "" {
			sp.Err = resp.Err
		}
		n.tracer.Emit(sp)
	}
	if callErr != nil {
		return vm.Value{}, remoteError(env, "%s.%s at %s: %v", target, method, endpoint, callErr), nil
	}
	if rec != nil {
		rec.RecordOutbound(target, endpoint,
			telemetry.RequestSize(req)+telemetry.ResponseSize(resp), time.Since(start))
	}
	// The callee served through a forwarding proxy and told us where the
	// object now lives: retarget our proxy so the next call goes to the
	// new home directly (and, when the new home is this node, collapses
	// to a local call).  SetFields writes the reference quadruple
	// atomically; racing retargets both carry valid homes, last wins.
	if r := resp.Redirect; r != nil && !classSide && !routedRead && r.GUID != "" && r.Endpoint != "" {
		setProxyFields(recv.O, r.GUID, r.Endpoint, r.Proto, orString(r.Target, target))
	}
	if resp.Err != "" {
		return vm.Value{}, remoteError(env, "%s.%s: %s", target, method, resp.Err), nil
	}
	if resp.ExClass != "" {
		return vm.Value{}, n.rethrow(env, resp), nil
	}
	val, err := n.unmarshalValue(env, resp.Result)
	if err != nil {
		return vm.Value{}, remoteError(env, "unmarshal result of %s.%s: %v", target, method, err), nil
	}
	return val, nil, nil
}

// callRemote sends a request while the VM lock is released, so incoming
// work (including callbacks from the callee) can execute meanwhile.
// The call rides the pool shard its affinity key selects — the target
// GUID, so one object's calls share one socket.
//
// Exactly-once regime (docs/CONCURRENCY.md §10): unless the request
// already carries a token (a forwarded call reusing its inbound token)
// the call is stamped with a fresh (caller, seq, attempt) token and rides
// the pool's persistent failover retry — the callee's dedup window makes
// a duplicate delivery replay the recorded response instead of executing
// twice, so even OpCreate retries safely (a replayed create returns the
// original GUID rather than stranding an orphan instance).
func (n *Node) callRemote(env *vm.Env, endpoint string, req *wire.Request) (*wire.Response, error) {
	if req.Token == nil {
		defer n.issuer.Finish(n.issuer.Stamp(req))
	}
	var resp *wire.Response
	var err error
	env.RunUnlocked(func() {
		resp, err = n.callEndpoint(endpoint, affinityKey(req), req)
	})
	return resp, err
}

// rethrow re-materialises a remote program exception locally.  The
// exception class always exists locally (both nodes run the same
// transformed program); if it somehow does not, degrade to
// sys.RemoteException.
func (n *Node) rethrow(env *vm.Env, resp *wire.Response) *vm.Thrown {
	obj, err := env.New(resp.ExClass)
	if err != nil {
		return remoteError(env, "remote exception %s: %s", resp.ExClass, resp.ExMsg)
	}
	obj.Set("message", vm.StringV(resp.ExMsg))
	return &vm.Thrown{Obj: obj}
}
