package cluster

import (
	"sort"
	"time"

	"rafda/internal/wire"
)

// The replica plane tracks which objects are read-replicated, where the
// copies live, and who may serve what (docs/REPLICATION.md):
//
//   - a replica set is keyed by the primary's exported GUID and merged
//     like a directory entry, ordered by (Version, Epoch, Origin):
//     membership changes bump Version, writes bump Epoch under an
//     unchanged Version, and Origin is the deterministic tie-break.
//     Sets relay through every member's gossip so pure callers (nodes
//     holding neither primary nor replica) still learn the routes;
//   - replicas hold a read lease measured in local ticks, renewed ONLY
//     by direct contact with the primary — a payload whose From digest
//     is the primary itself, either its push to us or its half of a
//     push-pull round we initiated.  Relayed copies of the set renew
//     nothing: a replica partitioned from its primary must fall back to
//     primary-only reads after leaseTicks even if third parties keep
//     echoing the set to it;
//   - the primary gossips directly to its replicas every tick (in
//     addition to the random fan-out), so a healthy link keeps leases
//     alive with no extra message class;
//   - when the primary's peer entry turns Dead, the lexicographically
//     smallest live replica endpoint promotes itself: Version+1, same
//     Epoch, itself removed from the member list, and the node runtime
//     notified (Runtime.Promote) so it can re-export the state and
//     re-route writes through RecordMove.  A deposed primary that
//     reconnects loses the Version merge and is told to stand down
//     (Runtime.Demote).
//
// Every write the primary acknowledges has either reached all replicas
// or evicted the unreachable ones AND waited out their leases — so no
// replica can serve a read older than the last acknowledged write.

// replState is one replica set plus this node's lease on it (meaningful
// only when this node is one of the members).
type replState struct {
	set wire.ReplicaSet
	// leaseUntil is the local tick the read lease expires at (replica
	// side; zero = no lease).
	leaseUntil uint64
}

// ReadRoute is the resolution answer for one read invocation.
type ReadRoute struct {
	// Endpoint is where the read should go.
	Endpoint string
	// GUID is the object identity at that endpoint (the replica's own
	// exported GUID, or the primary's).
	GUID string
	// Local reports the endpoint is this node itself: the caller holds a
	// lease-valid replica and should execute the read locally.
	Local bool
	// Epoch is the set's last acked write epoch at snapshot time.
	Epoch uint64
}

// promotion is one deferred Runtime.Promote call (made outside the lock).
type promotion struct {
	guid  string
	class string
	// selfGUID is this node's replica GUID, becoming the object's new
	// primary identity.
	selfGUID string
}

// newerSet reports whether a should replace b for the same key.
func newerSet(a, b wire.ReplicaSet) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	return a.Origin > b.Origin
}

// RecordReplicaSet publishes this node's replica set for the object it
// primaries: called by the node runtime after installing replicas and
// after every membership change.  Version advances past whatever the
// plane already knows; Origin is stamped here.
func (c *Coordinator) RecordReplicaSet(set wire.ReplicaSet) {
	c.mu.Lock()
	set.Version = c.replVersionLocked(set.GUID) + 1
	set.Origin = c.cfg.ID
	c.repl[set.GUID] = &replState{set: set}
	c.rebuildReplSnapLocked()
	c.logLocked(Event{Kind: "replica-set", GUID: set.GUID, Class: set.Class,
		To: set.Primary, Detail: memberList(set)})
	c.unlockAndDeliver()
}

// UpdateReplicaEpoch records a write the primary has fully acknowledged:
// every replica holds epoch, so reads at that epoch are current.  Called
// by the node runtime at the end of its write fan-out; Version is
// untouched (same membership, newer data).
func (c *Coordinator) UpdateReplicaEpoch(guid string, epoch uint64) {
	c.mu.Lock()
	if st, ok := c.repl[guid]; ok && st.set.Epoch < epoch {
		st.set.Epoch = epoch
		c.rebuildReplSnapLocked()
	}
	c.mu.Unlock()
}

// EvictReplica removes one unreachable member from a set this node
// primaries and returns how long the caller must wait before
// acknowledging the write that triggered the eviction: the evicted
// replica renews only on direct contact with us, so after its lease
// window passes it has stopped serving reads — stale ones included.
// The extra tick covers phase skew between the two nodes' tickers.
func (c *Coordinator) EvictReplica(guid, endpoint string) time.Duration {
	c.mu.Lock()
	st, ok := c.repl[guid]
	if ok {
		kept := st.set.Replicas[:0]
		for _, r := range st.set.Replicas {
			if r.Endpoint != endpoint {
				kept = append(kept, r)
			}
		}
		st.set.Replicas = kept
		st.set.Version++
		st.set.Origin = c.cfg.ID
		c.rebuildReplSnapLocked()
		c.logLocked(Event{Kind: "replica-evict", GUID: guid, Class: st.set.Class,
			From: endpoint, Detail: memberList(st.set)})
	}
	c.unlockAndDeliver()
	if !ok {
		return 0
	}
	return time.Duration(leaseTicks+1) * c.cfg.Heartbeat
}

// DropReplicaSet dissolves a set this node primaries: a tombstone
// (no primary, no members) that wins the Version merge and gossips
// outward, so every member stops routing reads to the former replicas.
func (c *Coordinator) DropReplicaSet(guid string) {
	c.mu.Lock()
	if st, ok := c.repl[guid]; ok {
		st.set = wire.ReplicaSet{GUID: guid, Class: st.set.Class,
			Version: st.set.Version + 1, Epoch: st.set.Epoch, Origin: c.cfg.ID}
		st.leaseUntil = 0
		c.rebuildReplSnapLocked()
		c.logLocked(Event{Kind: "replica-drop", GUID: guid, Class: st.set.Class})
	}
	c.unlockAndDeliver()
}

// ReplicaSet returns the plane's current view of guid's set.
func (c *Coordinator) ReplicaSet(guid string) (wire.ReplicaSet, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.repl[guid]
	if !ok {
		return wire.ReplicaSet{}, false
	}
	return st.set, true
}

// ReplicaSets returns every known set, sorted by GUID.
func (c *Coordinator) ReplicaSets() []wire.ReplicaSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.ReplicaSet, 0, len(c.repl))
	for _, st := range c.repl {
		out = append(out, st.set)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GUID < out[j].GUID })
	return out
}

// replRoute is the per-object entry of the lock-free read-routing
// snapshot.
type replRoute struct {
	primary  string
	epoch    uint64
	self     bool   // this node holds a replica
	selfGUID string // ...exported under this GUID
	// leaseUntil gates self-serving: local reads are allowed only while
	// the lease outlives the current tick.
	leaseUntil uint64
	// others are live replica members elsewhere (sorted by endpoint).
	others []wire.ReplicaInfo
}

// rebuildReplSnapLocked republishes the read-routing view.  Caller
// holds c.mu.
func (c *Coordinator) rebuildReplSnapLocked() {
	snap := make(map[string]replRoute, len(c.repl))
	for guid, st := range c.repl {
		if st.set.Primary == "" {
			continue // tombstone
		}
		rt := replRoute{primary: st.set.Primary, epoch: st.set.Epoch, leaseUntil: st.leaseUntil}
		for _, r := range st.set.Replicas {
			if r.Endpoint == c.cfg.Self {
				rt.self, rt.selfGUID = true, r.GUID
				continue
			}
			if !c.endpointDeadLocked(r.Endpoint) {
				rt.others = append(rt.others, r)
			}
		}
		sort.Slice(rt.others, func(i, j int) bool { return rt.others[i].Endpoint < rt.others[j].Endpoint })
		snap[guid] = rt
	}
	c.replSnap.Store(&snap)
}

// ReadTarget resolves one read invocation against guid's replica set:
// this node's own replica while its lease is valid, otherwise a live
// remote replica (deterministic pick), otherwise the primary.  Lock-free
// — proxies consult it on every classified-read call.  The second result
// is false when the object has no live replica set and reads should
// follow the ordinary resolution path.
func (c *Coordinator) ReadTarget(guid string) (ReadRoute, bool) {
	snap := c.replSnap.Load()
	if snap == nil {
		return ReadRoute{}, false
	}
	rt, ok := (*snap)[guid]
	if !ok {
		return ReadRoute{}, false
	}
	if rt.self && rt.leaseUntil > c.tickAtomic.Load() {
		return ReadRoute{Endpoint: c.cfg.Self, GUID: rt.selfGUID, Local: true, Epoch: rt.epoch}, true
	}
	if len(rt.others) > 0 {
		r := rt.others[0]
		return ReadRoute{Endpoint: r.Endpoint, GUID: r.GUID, Epoch: rt.epoch}, true
	}
	return ReadRoute{Endpoint: rt.primary, GUID: guid, Epoch: rt.epoch}, true
}

// LeaseValid reports whether this node's replica of guid may still serve
// reads (used by the dispatch side to refuse reads on an expired lease,
// the primary-partition fallback).
func (c *Coordinator) LeaseValid(guid string) bool {
	snap := c.replSnap.Load()
	if snap == nil {
		return false
	}
	rt, ok := (*snap)[guid]
	return ok && rt.self && rt.leaseUntil > c.tickAtomic.Load()
}

// mergeReplicasLocked folds received sets into the plane.  from is the
// payload's sender digest: a set whose primary IS the sender renews this
// node's lease, because that payload proves direct primary contact.
// Caller holds c.mu; returns deferred demotion callbacks.
func (c *Coordinator) mergeReplicasLocked(sets []wire.ReplicaSet, from wire.PeerDigest) []string {
	var demoted []string
	changed := false
	for _, set := range sets {
		if set.GUID == "" {
			continue
		}
		st, known := c.repl[set.GUID]
		if !known {
			st = &replState{}
			c.repl[set.GUID] = st
		}
		if !known || newerSet(set, st.set) {
			// Losing the Version merge while believing ourselves primary
			// means we were failed over while partitioned: stand down.
			if st.set.Primary == c.cfg.Self && set.Primary != c.cfg.Self && st.set.Primary != "" {
				demoted = append(demoted, set.GUID)
				c.logLocked(Event{Kind: "replica-demote", GUID: set.GUID,
					Class: set.Class, To: set.Primary})
			}
			st.set = set
			changed = true
		}
		if from.Endpoint == st.set.Primary && replicaMember(st.set, c.cfg.Self) {
			st.leaseUntil = c.tick + leaseTicks
			changed = true
		}
	}
	if changed {
		c.rebuildReplSnapLocked()
	}
	return demoted
}

// replicaTickLocked runs the per-tick replica work: expire nothing (the
// lease is a deadline, not a TTL map), but detect dead primaries and
// promote when this node is the smallest live replica.  Caller holds
// c.mu; returns the endpoints the primary side must gossip to directly
// plus deferred promotion callbacks.
func (c *Coordinator) replicaTickLocked() (direct []string, promos []promotion) {
	seen := map[string]bool{c.cfg.Self: true}
	for guid, st := range c.repl {
		set := st.set
		if set.Primary == "" {
			continue
		}
		if set.Primary == c.cfg.Self {
			// Primary: direct gossip to every member keeps their leases
			// renewed through a healthy link.
			for _, r := range set.Replicas {
				if !seen[r.Endpoint] {
					seen[r.Endpoint] = true
					direct = append(direct, r.Endpoint)
				}
			}
			continue
		}
		if !replicaMember(set, c.cfg.Self) || !c.endpointDeadLocked(set.Primary) {
			continue
		}
		// Primary is dead: the smallest live replica endpoint takes over.
		live := []string{c.cfg.Self}
		var selfGUID string
		for _, r := range set.Replicas {
			if r.Endpoint == c.cfg.Self {
				selfGUID = r.GUID
				continue
			}
			if !c.endpointDeadLocked(r.Endpoint) {
				live = append(live, r.Endpoint)
			}
		}
		sort.Strings(live)
		if live[0] != c.cfg.Self {
			continue
		}
		kept := make([]wire.ReplicaInfo, 0, len(set.Replicas))
		for _, r := range set.Replicas {
			if r.Endpoint != c.cfg.Self {
				kept = append(kept, r)
			}
		}
		st.set.Primary = c.cfg.Self
		st.set.Replicas = kept
		st.set.Version++
		st.set.Origin = c.cfg.ID
		st.leaseUntil = 0
		promos = append(promos, promotion{guid: guid, class: set.Class, selfGUID: selfGUID})
		c.logLocked(Event{Kind: "replica-promote", GUID: guid, Class: set.Class,
			From: set.Primary, To: c.cfg.Self, Detail: selfGUID})
	}
	if len(promos) > 0 {
		c.rebuildReplSnapLocked()
	}
	sort.Strings(direct)
	return direct, promos
}

// endpointDeadLocked reports whether the peer serving ep is known dead.
// Unknown endpoints are presumed alive: promotion must never trigger on
// ignorance.  Caller holds c.mu.
func (c *Coordinator) endpointDeadLocked(ep string) bool {
	for _, ps := range c.peers {
		if ps.digest.Endpoint == ep {
			return ps.health == Dead
		}
	}
	return false
}

// replVersionLocked returns the known version for guid's set (0 when
// unknown).  Caller holds c.mu.
func (c *Coordinator) replVersionLocked(guid string) uint64 {
	if st, ok := c.repl[guid]; ok {
		return st.set.Version
	}
	return 0
}

// replicaMember reports whether ep holds a replica in set.
func replicaMember(set wire.ReplicaSet, ep string) bool {
	for _, r := range set.Replicas {
		if r.Endpoint == ep {
			return true
		}
	}
	return false
}

// memberList renders a set's membership for event logs.
func memberList(set wire.ReplicaSet) string {
	eps := make([]string, 0, len(set.Replicas))
	for _, r := range set.Replicas {
		eps = append(eps, r.Endpoint)
	}
	sort.Strings(eps)
	out := "replicas:"
	for i, ep := range eps {
		if i > 0 {
			out += ","
		}
		out += ep
	}
	return out
}
