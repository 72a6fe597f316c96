package node

import (
	"fmt"
	"time"

	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// parkDrainPatience bounds how long Migrate waits for invocations
// parked mid-method (Env.RunUnlocked) to resume and finish before
// snapshotting.  A drained park executes exactly once; an interrupted
// one is retried whole at the new home, re-running its pre-park prefix
// (docs/CONCURRENCY.md §8) — so migration trades a short delay for
// keeping that prefix re-execution a bounded exception rather than the
// rule.  Kept well under typical method latencies' tail but far above a
// nested call's round trip.
const parkDrainPatience = 100 * time.Millisecond

// Migrate moves a live object to the node at targetEndpoint and morphs
// the local instance, in place, into a proxy to its new home.  Every
// existing local reference to the object immediately observes the proxy
// — the Figure 1 substitution of C by Cp — and, because the object stays
// exported here, remote references forward transparently.
//
// ref may be a local transformed instance or a proxy: migrating through
// a proxy forwards the request to the object's home node (OpMigrateOut),
// and the proxy then retargets to the object's new home.
//
// Atomicity: the whole freeze→snapshot→ship→morph sequence runs while
// holding the object's invocation gate.  Acquiring the gate drains
// in-flight gated invocations and blocks new ones, so no gate-holding
// method call can mutate state between the snapshot and the morph — the
// lost-update window the migration stress test demonstrates against
// weaker designs.  The freeze covers writers that hold no gate of the
// object's (an execution gated elsewhere, writing through accessors):
// their field stores wait on the gate until the morph, then follow the
// object to its new home (a failed ship thaws it instead).
// Blocked invocations resume once the morph completes and transparently
// forward through the proxy to the object's new home.  Two concurrent
// Migrate calls on one object serialise on the same gate; the loser
// observes the proxy and turns into a retargeting forward instead of
// shipping a second copy.
//
// An invocation parked inside Env.RunUnlocked — blocked on its own
// nested remote call — has released the gate, so a migration can land
// mid-method.  Migrate first waits up to parkDrainPatience for parked
// invocations to resume and finish (they then execute exactly once,
// entirely at the old home).  Past that patience the object's morph
// epoch catches the park on gate re-acquisition: the invocation
// unwinds with a vm.MigrationInterrupt and is retried whole through
// the morphed proxy, executing under the object's gate at its new home
// (the seed silently resumed old-class bytecode instead;
// docs/CONCURRENCY.md §8 — the retried method re-runs its pre-park
// prefix, the contract's one bounded at-least-once exception).
func (n *Node) Migrate(ref vm.Value, targetEndpoint string) error {
	return n.migrate(ref, targetEndpoint, trace.Ctx{})
}

// migrate is Migrate with a span context: a host-driven migration roots
// its own trace (zero ctx), while a remote-requested migrate-out
// continues the requester's (dispatchMigrateOut), so the drain, the
// shipment's OpMigrateIn leg and the adoption at the new home all hang
// off whatever caused the move.
func (n *Node) migrate(ref vm.Value, targetEndpoint string, ctx trace.Ctx) error {
	if ref.O == nil {
		return fmt.Errorf("node %s: migrate of nil reference", n.name)
	}
	obj := ref.O
	proto, _, err := transport.SplitEndpoint(targetEndpoint)
	if err != nil {
		return err
	}
	// Fast path: already a proxy — forward the migration to the home
	// node.  (A stale answer is harmless: the gated re-check below
	// catches a migration that completes after this look.)
	if transform.MarkOf(obj.Class()).Kind.Proxy() {
		return n.migrateViaHome(obj, targetEndpoint, ctx)
	}
	// A replicated primary dissolves its replica set before moving: the
	// tombstone re-routes readers to the (new) home and the copies are
	// dropped.  This runs before the gate is acquired — dropReplication
	// takes the set lock, and the lock order is set lock, then gate
	// (CONCURRENCY.md §13).
	if n.replActive.Load() {
		if guid, ok := n.exports.GUIDOf(obj); ok {
			n.dropReplication(guid)
		}
	}

	var viaProxy bool
	var migErr error
	// The migration span covers drain→ship→morph end to end; the drain
	// wait (gate acquisition plus park patience) is split out in the
	// Note so a flight-recorder read distinguishes a slow shipment from
	// a migration stalled behind parked invocations.
	sp := n.startSpan(ctx, trace.KindMigration, "migrate", targetEndpoint)
	drainStart := time.Now()
	var drained time.Duration
	// Park-drain loop: an invocation parked in Env.RunUnlocked has
	// released the gate, so ExecOn can land mid-method.  Rather than
	// interrupting it immediately (forcing a whole-method retry at the
	// new home, §8), release the gate and let it finish — bounded by
	// parkDrainPatience, after which the migration proceeds and the
	// parked call takes the MigrationInterrupt path.
	deadline := time.Now().Add(parkDrainPatience)
	for {
		var parkedWait bool
		n.machine.ExecOn(obj, func(env *vm.Env) {
			cls := obj.Class()
			m := transform.MarkOf(cls)
			if m.Kind.Proxy() {
				// Lost the race to another migration while waiting for the
				// gate; retarget through the home instead (outside the gate,
				// since migrateViaHome re-acquires it).
				viaProxy = true
				return
			}
			if m.Kind != transform.KindOLocal {
				migErr = fmt.Errorf("node %s: cannot migrate %s (only local transformed instances move)", n.name, cls.Name)
				return
			}
			if obj.Parked() > 0 && time.Now().Before(deadline) {
				// Waiting here would deadlock — the parked invocation
				// needs this gate to resume — so bail out and retry.
				parkedWait = true
				return
			}

			drained = time.Since(drainStart)
			// Freeze before the snapshot: a store by an execution that
			// holds no gate of obj's waits from here until the morph, so
			// none lands in a state the ship has already copied.
			_, fields := obj.Freeze()
			if migErr = n.shipAndMorph(obj, m.Base, fields, proto, targetEndpoint, sp); migErr != nil {
				obj.Thaw()
			}
		})
		if parkedWait {
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	if viaProxy {
		if sp != nil {
			sp.Note = "lost-race"
		}
		n.finishSpan(sp, "")
		return n.migrateViaHome(obj, targetEndpoint, ctx)
	}
	if sp != nil {
		sp.Note = fmt.Sprintf("drain %v %s", drained.Round(time.Microsecond), sp.Note)
	}
	errMsg := ""
	if migErr != nil {
		errMsg = migErr.Error()
	}
	n.finishSpan(sp, errMsg)
	return migErr
}

// shipAndMorph performs the snapshot→ship→morph sequence for Migrate.
// The caller holds obj's invocation gate throughout.  sp, when non-nil,
// is the caller's migration span: the shipment rides it as a child leg
// (the adoption's server span at the new home parents to it) and the
// ship/morph timing lands in its Note.
func (n *Node) shipAndMorph(obj *vm.Object, base string, fields map[string]vm.Value, proto, targetEndpoint string, sp *trace.Span) error {
	// Snapshot.  Referenced objects are exported and travel as
	// references back to this node.
	fvs, err := n.marshalFields(fields, proto)
	if err != nil {
		return err
	}
	req := &wire.Request{Op: wire.OpMigrateIn, Class: base, Fields: fvs}

	// The object's slice of the dedup window travels inside the
	// snapshot: a caller's post-migration retry of a call this node
	// already completed is then recognised at the new home and replayed
	// there instead of executing twice (docs/CONCURRENCY.md §10).  An
	// object never exported has never served a tokened call, so there is
	// nothing to ship.
	var shipped []wire.DedupEntry
	oldGUID, exported := n.exports.GUIDOf(obj)
	if exported {
		shipped = n.dedupTab.ExtractFor(oldGUID)
		req.Dedup = shipped
	}

	// Ship, still holding the gate: invocations arriving now block
	// until the morph lands and then forward to the new home.  The
	// shipment is a tokened call riding the pool's failover retry: a
	// duplicate delivery after the target already adopted the object
	// hits the target's dedup window and replays the recorded response
	// — same GUID, no second orphan copy — which is what lets migration
	// survive a mid-flight connection death (CONCURRENCY.md §10).
	shipStart := time.Now()
	resp, err := n.send(req, leg{endpoint: targetEndpoint, key: oldGUID, parent: sp.Ctx()})
	ship := time.Since(shipStart)
	if err != nil || resp.Err != "" {
		// The ship failed outright: the object stays live here, so its
		// extracted replay history must be restored or late duplicates
		// of already-completed calls would re-execute.
		if len(shipped) > 0 {
			n.dedupTab.Adopt(oldGUID, shipped)
		}
		if err != nil {
			return fmt.Errorf("node %s: migrate call: %w", n.name, err)
		}
		return fmt.Errorf("node %s: migrate rejected: %s", n.name, resp.Err)
	}
	if resp.Result.Kind != wire.KRef || resp.Result.Ref == nil {
		return fmt.Errorf("node %s: migrate returned no reference", n.name)
	}
	newRef := resp.Result.Ref

	// Morph the local object into a proxy to its new home.  All
	// existing references (including this node's export-table entry,
	// which now forwards) follow automatically.
	if err := n.machine.Morph(obj, transform.OProxy(base), proxyRef(newRef.GUID, newRef.Endpoint)); err != nil {
		return fmt.Errorf("node %s: morph after migrate: %w", n.name, err)
	}
	if sp != nil {
		morph := time.Since(shipStart) - ship
		sp.Note = fmt.Sprintf("ship %v morph %v",
			ship.Round(time.Microsecond), morph.Round(time.Microsecond))
	}
	n.migOut.Inc()
	// Publish the move into the cluster's placement directory (if
	// this node is in one): peers learn the object's new home via
	// gossip and resolve it directly instead of walking our
	// forwarding proxy.
	n.recordMove(obj, base, *newRef)
	return nil
}

// migrateViaHome forwards a migration request through a proxy to the
// object's current home and retargets the proxy to the new location.
// It holds the proxy's gate so concurrent retargets of the same proxy
// serialise and readers never race a half-written reference.
func (n *Node) migrateViaHome(proxy *vm.Object, targetEndpoint string, ctx trace.Ctx) error {
	var retErr error
	n.machine.ExecOn(proxy, func(env *vm.Env) {
		id, home := readProxyRef(proxy)
		if home == targetEndpoint {
			return // already there
		}
		// OpMigrateOut rides the pool's failover retry with a token: a
		// duplicate delivery is either replayed from the home's dedup
		// window or — for an untokened sender such as rafdac — finds the
		// home's export already forwarding and just returns the new
		// reference.
		// The migrate-out leg opens its own span on ctx's trace; the
		// home's migration span (its n.migrate) parents to this one.
		req := &wire.Request{Op: wire.OpMigrateOut, GUID: id, Endpoint: targetEndpoint}
		resp, err := n.send(req, leg{endpoint: home, parent: ctx, kind: trace.KindMigration, name: "migrate-out"})
		switch {
		case err != nil:
			retErr = fmt.Errorf("node %s: migrate-out: %w", n.name, err)
		case resp.Err != "":
			retErr = fmt.Errorf("node %s: migrate-out rejected: %s", n.name, resp.Err)
		case resp.Result.Kind != wire.KRef || resp.Result.Ref == nil:
			retErr = fmt.Errorf("node %s: migrate-out returned no reference", n.name)
		default:
			r := resp.Result.Ref
			setProxyRef(proxy, r.GUID, r.Endpoint)
		}
	})
	return retErr
}
