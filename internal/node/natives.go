package node

import (
	"fmt"
	"strings"
	"time"

	"rafda/internal/guid"
	"rafda/internal/ir"
	"rafda/internal/policy"
	"rafda/internal/telemetry"
	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/transport"
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
// The create leg is a client span on the execution's trace and spends
// from its deadline, like any call the execution makes.
func (n *Node) remoteCreate(env *vm.Env, class string, pl policy.Placement) (vm.Value, *vm.Thrown, error) {
	req := &wire.Request{Op: wire.OpCreate, Class: class, Caller: n.callerEndpoint(pl.Proto)}
	resp, err := n.send(req, leg{
		endpoint: pl.Endpoint, parent: envCtx(env), kind: trace.KindClient, name: wire.OpCreate.String(),
		deadline: env.DeadlineUs(), unlock: env,
	})
	return n.decodeResult(env, resp, err, pl.Endpoint, class, "<init>")
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

// proxyTripleFields is the proxy reference triple resolveProxy reads on
// every call, in ReadFields order.
var proxyTripleFields = [3]string{
	transform.ProxyFieldEndpoint,
	transform.ProxyFieldTarget,
	transform.ProxyFieldGUID,
}

// proxyInvoke performs one method invocation on behalf of a proxy
// object: resolve where the call goes, collapse it to a local call when
// that is this node or send it otherwise, and decode the reply.
func (n *Node) proxyInvoke(env *vm.Env, classSide bool, method string, recv vm.Value, args []vm.Value) (vm.Value, *vm.Thrown, error) {
	if recv.O == nil {
		return vm.Value{}, remoteError(env, "proxy invocation on null"), nil
	}
	// Consume forward baggage first, whichever path the call takes
	// below: this execution is a forwarding hop for an inbound call (the
	// dispatcher deposited the request when the gate opened onto a
	// proxy), and the re-send continues that logical call — same token,
	// same priority — so the new home recognises a duplicate of work the
	// old home already completed.  Taking it unconditionally keeps it
	// from leaking into a later nested call of the same execution.
	fwd, _ := env.TakeForward().(*wire.Request)
	t := n.resolveProxy(recv.O, classSide, method, len(args))

	// Same node: this node's own replica serving a routed read, or a
	// proxy pointing at this very node (e.g. after an object is migrated
	// back home).
	if t.replica != nil {
		return n.callLocal(env, t.replica, method, args)
	}
	if n.servesEndpoint(t.endpoint) {
		if classSide {
			me, thrown, err := n.localSingleton(env, t.class)
			if thrown != nil || err != nil {
				return vm.Value{}, thrown, err
			}
			return n.callLocal(env, me.O, method, args)
		}
		if obj, ok := n.exports.Get(t.id); ok {
			return n.callLocal(env, obj, method, args)
		}
		return vm.Value{}, remoteError(env, "%s.%s: stale self-reference %s", t.class, method, t.id), nil
	}

	oc, err := n.invokeRequest(t, method, args)
	if err != nil {
		return vm.Value{}, remoteError(env, "%v", err), nil
	}
	req := &oc.req
	n.callsOut.Inc()
	l := leg{
		endpoint: t.endpoint, parent: envCtx(env), kind: trace.KindClient, name: method,
		deadline: env.DeadlineUs(), fwd: fwd, tok: &oc.tok, unlock: env,
	}
	if t.routed {
		l.note = "routed-read"
	}
	rec := n.telem.Load()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	resp, err := n.send(req, l)
	if err == nil {
		if rec != nil {
			rec.RecordOutbound(t.class, t.endpoint,
				telemetry.RequestSize(req)+telemetry.ResponseSize(resp), time.Since(start))
		}
		// The callee served through a forwarding proxy and told us where
		// the object now lives: retarget our proxy so the next call goes
		// to the new home directly (and, when the new home is this node,
		// collapses to a local call).  SetFields writes the reference
		// quadruple atomically; racing retargets both carry valid homes,
		// last wins.
		if r := resp.Redirect; r != nil && !classSide && !t.routed && r.GUID != "" && r.Endpoint != "" {
			setProxyFields(recv.O, r.GUID, r.Endpoint, r.Proto, orString(r.Target, t.class))
		}
	}
	return n.decodeResult(env, resp, err, t.endpoint, t.class, method)
}

// proxyTarget is where one call through a proxy goes.
type proxyTarget struct {
	class, id, endpoint string
	// routed marks a read sent to a remote replica: the proxy keeps
	// naming the primary, because writes must keep serialising there.
	routed bool
	// replica is this node's own lease-valid copy, serving a routed read.
	replica *vm.Object
}

// resolveProxy reads proxy's reference and resolves it for one call.
func (n *Node) resolveProxy(proxy *vm.Object, classSide bool, method string, nargs int) proxyTarget {
	// One consistent snapshot of the proxy's reference triple: a
	// concurrent retarget (migration) can never hand us the GUID of one
	// home and the endpoint of another.  ReadFields is the
	// allocation-free form of View — this runs on every proxy call.
	var triple [3]vm.Value
	proxy.ReadFields(proxyTripleFields[:], triple[:])
	t := proxyTarget{endpoint: triple[0].S, class: triple[1].S, id: triple[2].S}
	if classSide {
		return t
	}
	// Directory-first resolution: when this node is in a cluster and the
	// placement directory knows a fresher home for the object, retarget
	// the proxy *before* dialling.  The directory is chain-collapsed, so
	// a reference N migrations stale jumps straight to the final home —
	// without this, each call would walk the whole Response.Redirect
	// forwarding chain one hop at a time (and pay every intermediate
	// node once more).  Costs one atomic load when not clustered.
	if ref, ok := n.resolveViaDirectory(t.id, t.endpoint); ok {
		if p, _, err := transport.SplitEndpoint(ref.Endpoint); err == nil {
			setProxyFields(proxy, ref.GUID, ref.Endpoint, p, orString(ref.Target, t.class))
			t.id, t.endpoint = ref.GUID, ref.Endpoint
		}
	}
	// Read routing (docs/REPLICATION.md): a provably read-only call on a
	// replicated object is served by the nearest lease-valid replica —
	// this node's own copy when it holds one, else a live remote replica
	// — instead of the primary.  The retarget is per-call: the proxy's
	// stored reference keeps naming the primary.  Effect classification
	// keys on the proxy class itself (the alias hook gave proxy natives
	// their local twins' effects), so this is one atomic load plus two
	// map reads; routing is skipped when the proxy points at this very
	// node (the self-collapse serves primary-fresh state directly).
	co := n.coord.Load()
	if co == nil || !n.effects.ReadOnly(proxy.ClassName(), ir.MethodKey(method, nargs)) {
		return t
	}
	if route, ok := co.ReadTarget(t.id); ok {
		switch {
		case route.Local:
			if obj, exp := n.exports.Get(route.GUID); exp {
				t.id, t.replica = route.GUID, obj
			}
		case route.Endpoint != "" && route.Endpoint != t.endpoint && !n.servesEndpoint(t.endpoint):
			t.id, t.endpoint, t.routed = route.GUID, route.Endpoint, true
		}
	}
	return t
}

// outCall is one call through a proxy on the wire: the request together
// with the storage its token and up to two arguments need, so the
// outbound leg is one allocation.
type outCall struct {
	req  wire.Request
	tok  wire.CallToken // send stamps the token here
	args [2]wire.Value
}

// invokeRequest is the wire form of one call through a proxy resolved
// to t, before send stamps it.
func (n *Node) invokeRequest(t proxyTarget, method string, args []vm.Value) (*outCall, error) {
	proto, _, _ := transport.SplitEndpoint(t.endpoint)
	oc := &outCall{}
	req := &oc.req
	req.Op, req.GUID, req.Method, req.Caller = wire.OpInvoke, t.id, method, n.callerEndpoint(proto)
	if len(args) <= len(oc.args) {
		req.Args = oc.args[:len(args):len(args)]
	} else {
		req.Args = make([]wire.Value, len(args))
	}
	for i, a := range args {
		mv, err := n.marshalValue(a, proto)
		if err != nil {
			return nil, fmt.Errorf("marshal argument %d of %s.%s: %v", i+1, t.class, method, err)
		}
		req.Args[i] = mv
	}
	return oc, nil
}

// callLocal performs a call that reached obj on this node without
// crossing the wire — a collapsed proxy call or a host CallOn — with
// the bookkeeping a dispatched call gets.  It holds obj's invocation
// gate (re-entrantly if the execution already does), so it keeps the
// monitor semantics it would have had arriving over the wire.
// Telemetry counts it as a local call — the steady-state path after an
// adaptive migration lands an object next to its caller, so it stays
// clock-free.  A write on a replicated primary fans out before
// returning, like any dispatched write.
func (n *Node) callLocal(env *vm.Env, obj *vm.Object, method string, args []vm.Value) (vm.Value, *vm.Thrown, error) {
	writer := n.isWriter(obj.ClassName(), method, len(args))
	if rec := n.telem.Load(); rec != nil {
		st, _ := obj.Telemetry().(*telemetry.ObjStats)
		if st == nil {
			// First touch, e.g. a host call before any peer's: without a
			// record here the placement engine would weigh the object's
			// local usage as zero against the first burst of remote
			// traffic.
			st = rec.ForObject(obj, n.exports.Ensure(obj), baseClassOf(obj.ClassName()))
		}
		st.RecordLocal()
		st.RecordEffect(writer)
	}
	res, thrown, err := env.CallGated(obj, method, args)
	// One atomic load when the node replicates nothing.  RunUnlocked
	// releases this execution's gates while the barrier re-acquires the
	// object's for its snapshot.
	if err == nil && writer && n.replActive.Load() {
		if id, ok := n.exports.GUIDOf(obj); ok {
			if _, replicated := n.replPrim.Load(id); replicated {
				env.RunUnlocked(func() { n.replicaWriteBarrier(obj, id, envCtx(env)) })
			}
		}
	}
	return res, thrown, err
}

// decodeResult turns a remote leg's outcome into the VM's: a transport
// failure or an infrastructure error surfaces as sys.RemoteException, a
// program exception is re-thrown here, and anything else is the
// unmarshalled result.  class and method name the call in messages.
func (n *Node) decodeResult(env *vm.Env, resp *wire.Response, err error, endpoint, class, method string) (vm.Value, *vm.Thrown, error) {
	switch {
	case err != nil:
		return vm.Value{}, remoteError(env, "%s.%s at %s: %v", class, method, endpoint, err), nil
	case resp.Err != "":
		return vm.Value{}, remoteError(env, "%s.%s: %s", class, method, resp.Err), nil
	case resp.ExClass != "":
		// The exception class always exists locally (both nodes run the
		// same transformed program); if it somehow does not, degrade to
		// sys.RemoteException.
		obj, err := env.New(resp.ExClass)
		if err != nil {
			return vm.Value{}, remoteError(env, "remote exception %s: %s", resp.ExClass, resp.ExMsg), nil
		}
		obj.Set("message", vm.StringV(resp.ExMsg))
		return vm.Value{}, &vm.Thrown{Obj: obj}, nil
	}
	val, err := n.unmarshalValue(env, resp.Result)
	if err != nil {
		return vm.Value{}, remoteError(env, "unmarshal result of %s.%s: %v", class, method, err), nil
	}
	return val, nil, nil
}
