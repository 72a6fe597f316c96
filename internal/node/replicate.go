package node

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafda/internal/intercept"
	"rafda/internal/ir"
	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// Read replication (docs/REPLICATION.md): a read-mostly object keeps one
// lease-holding primary — the node that owns the live instance — and any
// number of read replicas, full local copies of its state installed at
// its hottest caller nodes.  The verifier's method-effect analysis
// (internal/verifier.Effects) splits invocations into provable reads,
// which any lease-valid replica may serve, and writes, which serialise
// through the primary: each acknowledged write bumps the object's epoch
// and has either reached every replica (OpReplicaUpdate) or evicted the
// unreachable ones and waited out their leases — so no replica ever
// serves a read older than the last acknowledged write.
//
// Lock order: primaryReplica.fanMu, then the object's invocation gate,
// then primaryReplica.mu (a leaf — held only for field access, never
// across the gate, the network, or a lease wait).  replicaWriteBarrier
// follows the full chain; dropReplication and demoteReplica take only
// mu, inside retirePrimary and released before any drop request is sent,
// so dissolving or demoting a set never blocks behind an in-flight
// fan-out or its eviction wait, nor a barrier behind the drop's sends
// (CONCURRENCY.md §13).

// primaryReplica is this node's bookkeeping for an object it primaries.
type primaryReplica struct {
	// guid is the replica set's key: this node's exported GUID for the
	// object (the identity callers resolve).
	guid  string
	class string

	// fanMu serialises write barriers: it is held across the epoch bump,
	// the fan-out, and any eviction lease wait, so one write's
	// acknowledgement gate cannot be overtaken by the next write's.
	// Deliberate back-pressure: concurrent writes to the same replicated
	// object queue here for up to one lease window when a replica is
	// partitioned.
	fanMu sync.Mutex
	// mu guards epoch, members and dropped with short critical sections
	// only.  The epoch bump additionally happens under the object's
	// gate, so epoch order matches state order.
	mu      sync.Mutex
	epoch   uint64
	members []wire.ReplicaInfo
	// dropped marks a dissolved or demoted set: barriers become no-ops.
	dropped bool
}

// replicaCopy is this node's bookkeeping for a replica it serves.
type replicaCopy struct {
	class           string
	primaryGUID     string
	primaryEndpoint string
	primaryProto    string
	// epoch is the write epoch of the local copy's state.  Written only
	// under the replica object's invocation gate; read lock-free when a
	// served read stamps its response (also under the gate, so the stamp
	// matches the state the read observed).
	epoch atomic.Uint64
}

// isWriter classifies one invocation by the program's effect verdicts
// (transform.Result.ReadOnly): true unless the method is provably free
// of writes to pre-existing state.  Unknown methods — including anything the effects
// pass never saw — are writers, so misclassification costs read scaling,
// never correctness.
func (n *Node) isWriter(class, method string, nargs int) bool {
	return !n.result.ReadOnly(class, ir.MethodKey(method, nargs))
}

// IsReplicated reports whether obj participates in a replica set on this
// node, as primary or as replica.  The adaptive engine uses it to stop
// re-proposing replication of an already-replicated object.
func (n *Node) IsReplicated(obj *vm.Object) bool {
	if !n.replActive.Load() {
		return false
	}
	guid, ok := n.exports.GUIDOf(obj)
	if !ok {
		return false
	}
	if _, ok := n.replPrim.Load(guid); ok {
		return true
	}
	_, ok = n.replCopies.Load(guid)
	return ok
}

// Replicate installs read replicas of a live local object at the given
// endpoints and registers the replica set with the cluster's replica
// plane.  This node stays the object's lease-holding primary: writes
// keep serialising here, each one fanning out to every replica before it
// is acknowledged, while provably read-only calls route to the nearest
// lease-valid replica (proxy side) or are served locally by one
// (dispatch side).  Requires an attached cluster (StartCluster): the
// replica plane's gossip is what disseminates routes and renews leases.
//
// The snapshot→install→register sequence holds the object's invocation
// gate, like migration: no write can land between the shipped state and
// the moment the write barrier starts covering the set.
func (n *Node) Replicate(ref vm.Value, endpoints ...string) error {
	if ref.O == nil {
		return fmt.Errorf("node %s: replicate of nil reference", n.name)
	}
	co := n.coord.Load()
	if co == nil {
		return fmt.Errorf("node %s: replication needs a cluster (StartCluster first)", n.name)
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("node %s: replicate with no target endpoints", n.name)
	}
	obj := ref.O
	var retErr error
	n.machine.ExecOn(obj, func(env *vm.Env) {
		cls, fields := obj.View()
		m := transform.MarkOf(cls)
		if m.Kind != transform.KindOLocal {
			retErr = fmt.Errorf("node %s: cannot replicate %s (only local transformed instances replicate)", n.name, cls.Name)
			return
		}
		id := n.exports.Ensure(obj)
		if _, ok := n.replPrim.Load(id); ok {
			retErr = fmt.Errorf("node %s: %s is already replicated", n.name, id)
			return
		}
		if _, ok := n.replCopies.Load(id); ok {
			retErr = fmt.Errorf("node %s: %s is itself a replica", n.name, id)
			return
		}
		// One snapshot serves every target: values marshal with the
		// neutral "" proto (exactly as the write barrier does), so a
		// mixed-proto endpoint list never receives values marshalled for
		// a different transport.
		fvs, err := n.marshalFields(fields, "")
		if err != nil {
			retErr = err
			return
		}

		const firstEpoch = 1
		var members []wire.ReplicaInfo
		var failures []string
		for _, ep := range endpoints {
			if ep == "" || n.servesEndpoint(ep) {
				continue // replicating to the primary itself is a no-op
			}
			proto, _, err := transport.SplitEndpoint(ep)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", ep, err))
				continue
			}
			req := &wire.Request{
				Op: wire.OpReplicaInstall, GUID: id, Class: m.Base,
				Endpoint: co.Self(), Epoch: firstEpoch, Fields: fvs,
				Caller: n.callerEndpoint(proto),
			}
			resp, err := n.send(req, leg{endpoint: ep})
			switch {
			case err != nil:
				failures = append(failures, fmt.Sprintf("%s: %v", ep, err))
			case resp.Err != "":
				failures = append(failures, fmt.Sprintf("%s: %s", ep, resp.Err))
			case resp.Result.Kind != wire.KRef || resp.Result.Ref == nil:
				failures = append(failures, fmt.Sprintf("%s: install returned no reference", ep))
			default:
				members = append(members, wire.ReplicaInfo{Endpoint: ep, GUID: resp.Result.Ref.GUID})
			}
		}
		if len(members) == 0 {
			retErr = fmt.Errorf("node %s: no replica of %s installed: %s",
				n.name, id, strings.Join(failures, "; "))
			return
		}
		pr := &primaryReplica{guid: id, class: m.Base, epoch: firstEpoch, members: members}
		n.replPrim.Store(id, pr)
		n.replActive.Store(true)
		co.RecordReplicaSet(wire.ReplicaSet{
			GUID: id, Class: m.Base, Primary: co.Self(), Epoch: firstEpoch, Replicas: members,
		})
	})
	return retErr
}

// replicaWriteBarrier propagates a completed write on a replicated
// primary to every replica before the write is acknowledged, and returns
// the epoch the write committed at (0 when the object is not a
// replicated primary here).  The snapshot and the epoch bump share the
// object's invocation gate, so epoch order equals state order; the
// fan-out itself runs outside the gate (replicas order updates by
// epoch).  A replica that cannot be reached — or that acks an epoch
// other than the one pushed, which means its copy diverged — is evicted
// from the set and its lease waited out — after that wait it has
// provably stopped serving reads — so the acknowledgement's guarantee
// survives partitions: every replica still in the set holds the new
// state, and everyone else is lease-dead.
//
// Locking: fanMu is held end to end (barriers for the same object
// serialise, including the eviction wait — the back-pressure is the
// point: the next write cannot be acknowledged past a replica that
// might still serve the previous state).  pr.mu is taken only for the
// epoch bump and the membership edit, so dropReplication and
// demoteReplica never block behind a fan-out or a lease wait.
func (n *Node) replicaWriteBarrier(obj *vm.Object, id string, ctx trace.Ctx) uint64 {
	v, ok := n.replPrim.Load(id)
	if !ok {
		return 0
	}
	pr := v.(*primaryReplica)
	co := n.coord.Load()
	if co == nil {
		return 0
	}
	// The barrier span opens before fanMu so its duration covers the
	// serialisation wait behind earlier barriers — that queueing is the
	// back-pressure this barrier exists to apply, and hiding it would
	// make a flight-recorder read of a slow write misleading.
	sp := n.startSpan(ctx, trace.KindBarrier, "write-barrier", id)
	pr.fanMu.Lock()
	defer pr.fanMu.Unlock()
	var epoch uint64
	var fvs []wire.NamedValue
	skip := false
	n.machine.ExecOn(obj, func(env *vm.Env) {
		cls, fields := obj.View()
		if transform.MarkOf(cls).Kind.Proxy() {
			skip = true // migrated away between the write and the barrier
			return
		}
		pr.mu.Lock()
		if pr.dropped {
			pr.mu.Unlock()
			skip = true
			return
		}
		pr.epoch++
		epoch = pr.epoch
		pr.mu.Unlock()
		var err error
		if fvs, err = n.marshalFields(fields, ""); err != nil {
			skip = true // unshippable state: skip this round
		}
	})
	if skip {
		if sp != nil {
			sp.Note = "skipped"
		}
		n.finishSpan(sp, "")
		return 0
	}
	pr.mu.Lock()
	members := append([]wire.ReplicaInfo(nil), pr.members...)
	pr.mu.Unlock()
	evicted := make(map[string]bool)
	var wait time.Duration
	for _, m := range members {
		// Fan-out legs ride the barrier span, on the write's trace.
		req := &wire.Request{Op: wire.OpReplicaUpdate, GUID: m.GUID, Fields: fvs, Epoch: epoch}
		resp, err := n.send(req, leg{endpoint: m.Endpoint, parent: sp.Ctx()})
		if err == nil && resp.Err == "" && resp.Epoch == epoch {
			continue
		}
		evicted[m.Endpoint] = true
		if w := co.EvictReplica(pr.guid, m.Endpoint); w > wait {
			wait = w
		}
	}
	if len(evicted) > 0 {
		pr.mu.Lock()
		kept := pr.members[:0]
		for _, m := range pr.members {
			if !evicted[m.Endpoint] {
				kept = append(kept, m)
			}
		}
		pr.members = kept
		pr.mu.Unlock()
	}
	if wait > 0 {
		// The evicted replicas renew leases only on direct contact with
		// us; once their lease window passes they refuse local reads, so
		// the write may be acknowledged without them.  fanMu (not pr.mu)
		// covers the sleep: a concurrent dissolution or demotion edits
		// the set freely while we wait.
		time.Sleep(wait)
	}
	if sp != nil {
		sp.Note = fmt.Sprintf("epoch %d fan-out %d evicted %d", epoch, len(members), len(evicted))
	}
	n.finishSpan(sp, "")
	co.UpdateReplicaEpoch(pr.guid, epoch)
	return epoch
}

// dropReplication dissolves a replica set this node primaries: drop
// requests to every member, a tombstone into the replica plane.  Called
// before migrating a replicated object away (Migrate takes the gate
// after this returns — see the lock-order note above) and as the first
// half of demotion.
func (n *Node) dropReplication(id string) {
	pr, members := n.retirePrimary(id)
	if pr == nil {
		return
	}
	if co := n.coord.Load(); co != nil {
		co.DropReplicaSet(pr.guid)
	}
	for _, m := range members {
		req := &wire.Request{Op: wire.OpReplicaDrop, GUID: m.GUID}
		_, _ = n.send(req, leg{endpoint: m.Endpoint}) // best-effort; the tombstone converges anyway
	}
}

// retirePrimary stands this node down as primary of the set at id: it
// forgets the set under every identity (promotion stores an alias),
// marks it dropped so barriers become no-ops, and returns it with the
// members it had — nil when this node primaries no set at id.  pr.mu is
// released before it returns, so the caller's sends to the members never
// hold it.
func (n *Node) retirePrimary(id string) (*primaryReplica, []wire.ReplicaInfo) {
	v, ok := n.replPrim.LoadAndDelete(id)
	if !ok {
		return nil, nil
	}
	n.replPrim.Range(func(k, val any) bool {
		if val == v {
			n.replPrim.Delete(k)
		}
		return true
	})
	pr := v.(*primaryReplica)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.dropped = true
	members := pr.members
	pr.members = nil
	return pr, members
}

// serveAtReplica handles an OpInvoke addressed to a replica copy.  A
// provable read under a valid lease executes locally, stamped (inside
// the gate, so the stamp matches the observed state) with the copy's
// epoch.  Everything else — writes, unclassifiable methods, reads after
// the lease expired (the primary-partition fallback) — forwards to the
// primary as the same logical call (token reused, attempt bumped) and
// carries a Redirect so the caller retargets.
func (n *Node) serveAtReplica(cc *intercept.CallCtx, obj *vm.Object, rc *replicaCopy) *wire.Response {
	req := cc.Req
	co := n.coord.Load()
	if n.isWriter(obj.ClassName(), req.Method, len(req.Args)) ||
		co == nil || !co.LeaseValid(rc.primaryGUID) {
		return n.forwardToPrimary(req, rc)
	}
	// The replica-read span marks which plane served the call; the
	// server span servedInvoke emits alongside it carries the queue/run
	// split.  Both parent to the caller's span, so the trace shows the
	// read was absorbed here instead of reaching the primary.
	sp := n.startSpan(traceCtxOf(req), trace.KindReplicaRead, req.Method, req.GUID)
	resp := &wire.Response{ID: req.ID}
	expired := false
	n.servedInvoke(cc, resp, obj, req.GUID, func(env *vm.Env) {
		// The pre-gate lease check above only admits the read to the
		// queue; it may have waited on the gate past the lease's expiry —
		// and past the primary's eviction wait, whose guarantee would be
		// defeated by executing now.  Re-check under the gate, next to
		// the epoch stamp, which lives here for the same reason.
		if !co.LeaseValid(rc.primaryGUID) {
			expired = true
			return
		}
		n.invokeOn(env, resp, vm.RefV(obj), req)
		resp.Epoch = rc.epoch.Load()
	})
	if expired {
		if sp != nil {
			sp.Note = "lease-expired"
		}
		n.finishSpan(sp, "")
		return n.forwardToPrimary(req, rc)
	}
	if sp != nil {
		sp.Note = fmt.Sprintf("epoch %d", resp.Epoch)
	}
	n.finishSpan(sp, resp.Err)
	return resp
}

// forwardToPrimary relays one replica-refused invocation to the set's
// primary and tells the caller to go there directly next time.  The
// forward is the caller's logical call continued through this hop: its
// token (attempt bumped), its priority and its remaining budget
// (admission already charged the slot wait) travel on, and the forward
// span parents to the caller's client span — or, untraced here, the
// caller's context passes straight through — so the primary's server
// span stays on the caller's trace.
func (n *Node) forwardToPrimary(req *wire.Request, rc *replicaCopy) *wire.Response {
	fwd := &wire.Request{Op: wire.OpInvoke, GUID: rc.primaryGUID, Method: req.Method, Args: req.Args, Caller: req.Caller}
	resp, err := n.send(fwd, leg{
		endpoint: rc.primaryEndpoint, parent: traceCtxOf(req),
		kind: trace.KindReplicaRead, name: "forward-primary", target: rc.primaryGUID,
		deadline: req.DeadlineUs, fwd: req,
	})
	redirect := &wire.RemoteRef{
		GUID: rc.primaryGUID, Endpoint: rc.primaryEndpoint,
		Proto: rc.primaryProto, Target: rc.class,
	}
	if err != nil {
		out := wire.Errorf(req, "node %s: replica %s cannot reach primary %s: %v",
			n.name, req.GUID, rc.primaryEndpoint, err)
		out.Redirect = redirect
		return out
	}
	out := *resp
	out.ID = req.ID
	out.Redirect = redirect
	return &out
}

// dispatchReplicaInstall builds a full local copy of the shipped state,
// exports it under a fresh GUID and starts serving it as a replica of
// the primary named in the request.  Like migration adoption, the
// rebuild runs ungated: the copy is unshared until its reference leaves.
func (n *Node) dispatchReplicaInstall(req *wire.Request) *wire.Response {
	if !n.result.Substitutable(req.Class) {
		return wire.Errorf(req, "node %s: cannot replicate non-substitutable class %s", n.name, req.Class)
	}
	if req.GUID == "" || req.Endpoint == "" {
		return wire.Errorf(req, "node %s: replica install without primary identity", n.name)
	}
	proto, _, err := transport.SplitEndpoint(req.Endpoint)
	if err != nil {
		return wire.Errorf(req, "node %s: replica install: %v", n.name, err)
	}
	return n.adopt(req, func(g string) {
		rc := &replicaCopy{
			class: req.Class, primaryGUID: req.GUID,
			primaryEndpoint: req.Endpoint, primaryProto: proto,
		}
		rc.epoch.Store(req.Epoch)
		n.replCopies.Store(g, rc)
		n.replActive.Store(true)
	})
}

// dispatchReplicaUpdate applies one committed write to a replica copy,
// under the copy's invocation gate so reads never observe half-applied
// state.  Updates order by epoch: a stale or duplicate delivery is
// acknowledged without applying (the fan-out may race; newest wins).
func (n *Node) dispatchReplicaUpdate(req *wire.Request) *wire.Response {
	v, ok := n.replCopies.Load(req.GUID)
	if !ok {
		return wire.Errorf(req, "node %s: %s is not a replica here", n.name, req.GUID)
	}
	rc := v.(*replicaCopy)
	obj, ok := n.exports.Get(req.GUID)
	if !ok {
		return wire.Errorf(req, "node %s: replica %s has no exported copy", n.name, req.GUID)
	}
	resp := &wire.Response{ID: req.ID}
	n.machine.ExecOn(obj, func(env *vm.Env) {
		if req.Epoch <= rc.epoch.Load() {
			resp.Epoch = rc.epoch.Load()
			return
		}
		if err := n.setFields(env, obj, req.Fields); err != nil {
			resp.Err = err.Error()
			return
		}
		rc.epoch.Store(req.Epoch)
		resp.Epoch = req.Epoch
	})
	return resp
}

// dispatchReplicaDrop tears a replica copy down: it stops serving reads
// immediately and its export is withdrawn (late reads surface an unknown
// object error and retarget through the tombstoned set).
func (n *Node) dispatchReplicaDrop(req *wire.Request) *wire.Response {
	if _, ok := n.replCopies.LoadAndDelete(req.GUID); ok {
		n.exports.Remove(req.GUID)
	}
	return &wire.Response{ID: req.ID}
}

// promoteReplica is the node's cluster.Runtime.Promote: the primary of
// a set this node replicates is dead and this node won the deterministic
// election (smallest live replica endpoint).  The local copy stops being
// a replica, re-exports under the old primary identity — callers' stale
// proxies and the set key both name it — and starts fielding writes,
// with the remaining members as its replica set.  A directory move
// re-routes proxies from the dead endpoint in one hop.
func (n *Node) promoteReplica(id, class, selfGUID string) {
	v, ok := n.replCopies.LoadAndDelete(selfGUID)
	if !ok {
		return
	}
	rc := v.(*replicaCopy)
	obj, ok := n.exports.Get(selfGUID)
	if !ok {
		return
	}
	co := n.coord.Load()
	if co == nil {
		return
	}
	n.exports.Put(id, obj)
	set, ok := co.ReplicaSet(id)
	if !ok {
		return
	}
	// Seed the write epoch strictly above anything the dead primary can
	// have pushed.  Barriers serialise (fanMu) and every *acknowledged*
	// epoch reached every surviving member, so member epochs can exceed
	// max(local epoch, set epoch) by at most one: the single unacked
	// fan-out the primary may have died inside.  Jumping one past the
	// max means this primary's first write commits at an epoch no
	// replica has seen — a member that applied the dead primary's
	// unacked update can never equal-epoch-collide with it, silently
	// acking a new write it did not apply and then serving the dead
	// primary's state after the write is acknowledged.
	epoch := rc.epoch.Load()
	if set.Epoch > epoch {
		epoch = set.Epoch
	}
	epoch++
	pr := &primaryReplica{guid: id, class: class, epoch: epoch, members: set.Replicas}
	n.replPrim.Store(id, pr)
	if selfGUID != id {
		// Writes may arrive addressed to either identity.
		n.replPrim.Store(selfGUID, pr)
	}
	n.replActive.Store(true)
	if proto, _, err := transport.SplitEndpoint(co.Self()); err == nil {
		co.RecordMove(id, class, wire.RemoteRef{
			GUID: id, Endpoint: co.Self(), Proto: proto, Target: class,
		})
	}
}

// demoteReplica is the node's cluster.Runtime.Demote: a Version merge
// showed this node was failed over while partitioned — another replica
// is the primary now.  Stand down: stop running barriers, and morph the
// local copy into a proxy at the new primary so local references follow
// it.  Writes this node acknowledged alone during the partition are
// lost — the protocol's split-brain residual (docs/REPLICATION.md
// failure matrix); leases bound the window in which the *other* side
// could serve stale reads, not the deposed primary's solo writes.
func (n *Node) demoteReplica(id string) {
	pr, _ := n.retirePrimary(id)
	if pr == nil {
		return
	}
	co := n.coord.Load()
	obj, okObj := n.exports.Get(id)
	if co == nil || !okObj {
		return
	}
	set, okSet := co.ReplicaSet(id)
	if !okSet || set.Primary == "" || n.servesEndpoint(set.Primary) {
		return
	}
	if _, _, err := transport.SplitEndpoint(set.Primary); err != nil {
		return
	}
	n.machine.ExecOn(obj, func(env *vm.Env) {
		if transform.MarkOf(obj.Class()).Kind.Proxy() {
			return // already morphed (e.g. a racing migration)
		}
		_ = n.machine.Morph(obj, transform.OProxy(pr.class), proxyRef(id, set.Primary))
	})
}
