package node

import (
	"fmt"
	"sort"
	"time"

	"rafda/internal/adapt"
	"rafda/internal/cluster"
	"rafda/internal/telemetry"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// StartCluster joins this node to the cluster coordination plane: it
// builds a coordinator over the node's runtime (sharing the client
// cache, so gossip rides the connections invocations already hold),
// attaches it — enabling OpGossip dispatch and directory-first proxy
// resolution — and performs the join exchange with the seeds.  The
// caller drives the coordinator (Start for the timed loop, Tick for
// deterministic harnesses) and Stops it before Close.
//
// cfg.ID defaults to the node name and cfg.Self to the node's serving
// endpoint (preferring rrp); Runtime is always the node's own.
func (n *Node) StartCluster(cfg cluster.Config, seeds []string) (*cluster.Coordinator, error) {
	if cfg.ID == "" {
		cfg.ID = n.name
	}
	if cfg.Self == "" {
		cfg.Self = n.anyEndpoint("rrp")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("node %s: cluster needs a serving endpoint (Serve first)", n.name)
	}
	// Rollups and RTT need the metrics plane; the rollups read it
	// through the runtime's own cursor.
	cfg.Runtime = &clusterRuntime{n: n, win: n.EnableTelemetry().NewWindow()}
	co, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if !n.coord.CompareAndSwap(nil, co) {
		return nil, fmt.Errorf("node %s: already in a cluster", n.name)
	}
	if err := co.Join(seeds); err != nil {
		n.coord.Store(nil)
		return nil, err
	}
	return co, nil
}

// Cluster returns the attached coordinator, or nil.
func (n *Node) Cluster() *cluster.Coordinator { return n.coord.Load() }

// clusterRuntime adapts the node to the coordinator's Runtime interface.
type clusterRuntime struct {
	n *Node
	// win is the rollups' telemetry cursor: AffinitySamples reports
	// deltas between consecutive calls, so rollups describe recent
	// traffic, not history.
	win *telemetry.Window
}

// Call implements cluster.Runtime over the node's shared client cache.
// Gossip is pinned to each pool's shard-0 connection (cache.Call), so
// the RTT the coordinator observes always measures the same socket
// instead of smearing across shards.
func (r *clusterRuntime) Call(endpoint string, req *wire.Request) (*wire.Response, error) {
	req.ID = r.n.nextReqID()
	return r.n.cache.Call(endpoint, req)
}

// MigrateGUID implements cluster.Runtime: execute a cluster-won intent
// through the node's ordinary migration path (object gate held across
// snapshot→ship→morph; RecordMove fires from Migrate on success).
func (r *clusterRuntime) MigrateGUID(guid, endpoint string) (wire.RemoteRef, error) {
	obj, ok := r.n.exports.Get(guid)
	if !ok {
		return wire.RemoteRef{}, fmt.Errorf("node %s: unknown object %s", r.n.name, guid)
	}
	if !r.n.IsMigratable(obj) {
		return wire.RemoteRef{}, fmt.Errorf("node %s: %s is no longer a live local instance", r.n.name, guid)
	}
	if err := r.n.Migrate(vm.RefV(obj), endpoint); err != nil {
		return wire.RemoteRef{}, err
	}
	ref := proxyRefOf(obj)
	if ref == nil {
		return wire.RemoteRef{}, fmt.Errorf("node %s: %s did not morph after migration", r.n.name, guid)
	}
	return *ref, nil
}

// OwnsGUID implements cluster.Runtime.
func (r *clusterRuntime) OwnsGUID(guid string) bool {
	obj, ok := r.n.exports.Get(guid)
	return ok && r.n.IsMigratable(obj)
}

// AffinitySamples implements cluster.Runtime: window-delta rollups of
// the hottest locally hosted migratable objects, the evidence gossip
// disseminates for multi-hop placement.
func (r *clusterRuntime) AffinitySamples(max int) []wire.ObjAffinity {
	if max <= 0 {
		return nil
	}
	objs, _ := r.win.Next()
	hot := objs[:0]
	for _, s := range objs {
		if r.n.IsMigratable(s.Obj) {
			hot = append(hot, s)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if ci, cj := hot[i].Calls(), hot[j].Calls(); ci != cj {
			return ci > cj
		}
		return hot[i].GUID < hot[j].GUID
	})
	hot = hot[:min(len(hot), max)]
	out := make([]wire.ObjAffinity, len(hot))
	for i, s := range hot {
		a := wire.ObjAffinity{GUID: s.GUID, Class: s.Class, Calls: s.Calls()}
		for ep, c := range s.Callers {
			a.Callers = append(a.Callers, wire.EndpointCount{Endpoint: ep, Calls: c})
		}
		sort.Slice(a.Callers, func(i, j int) bool { return a.Callers[i].Endpoint < a.Callers[j].Endpoint })
		out[i] = a
	}
	return out
}

// ObservePeerRTT implements cluster.Runtime.
func (r *clusterRuntime) ObservePeerRTT(endpoint string, d time.Duration) {
	if rec := r.n.telem.Load(); rec != nil {
		rec.RecordPeerRTT(endpoint, d)
	}
}

// ApplyClassPlacement implements cluster.Runtime: follow a gossiped
// class placement epoch in the local policy table (without announcing
// it again — the epoch is already the directory's).
func (r *clusterRuntime) ApplyClassPlacement(class, endpoint string) error {
	pl, err := r.n.placement(endpoint)
	if err != nil {
		return err
	}
	r.n.pol.SetClass(class, pl)
	return nil
}

// Promote implements cluster.Runtime: re-home the replica copy as the
// new primary (replicate.go).
func (r *clusterRuntime) Promote(guid, class, selfGUID string) {
	r.n.promoteReplica(guid, class, selfGUID)
}

// Demote implements cluster.Runtime: stand a deposed primary down
// (replicate.go).
func (r *clusterRuntime) Demote(guid string) { r.n.demoteReplica(guid) }

// dispatchGossip serves one inbound gossip exchange.
func (n *Node) dispatchGossip(req *wire.Request) *wire.Response {
	co := n.coord.Load()
	if co == nil {
		return wire.Errorf(req, "node %s: not in a cluster", n.name)
	}
	return &wire.Response{ID: req.ID, Cluster: co.HandleGossip(req.Cluster)}
}

// recordMove publishes a completed outbound migration of the export
// under oldGUID into the cluster directory (no-op outside a cluster).
func (n *Node) recordMove(obj *vm.Object, base string, ref wire.RemoteRef) {
	co := n.coord.Load()
	if co == nil {
		return
	}
	if guid, ok := n.exports.GUIDOf(obj); ok {
		co.RecordMove(guid, base, ref)
	}
}

// resolveViaDirectory consults the cluster's placement directory for a
// fresher home of the object behind guid, returning the chain-collapsed
// reference.  One atomic load when no cluster is attached.
func (n *Node) resolveViaDirectory(guid, endpoint string) (wire.RemoteRef, bool) {
	co := n.coord.Load()
	if co == nil {
		return wire.RemoteRef{}, false
	}
	ref, ok := co.Resolve(guid)
	if !ok || ref.GUID == "" || ref.Endpoint == "" {
		return wire.RemoteRef{}, false
	}
	if ref.GUID == guid && ref.Endpoint == endpoint {
		return wire.RemoteRef{}, false // directory agrees with the proxy
	}
	return ref, true
}

// SubmitIntent implements adapt.Node's cluster delegation: a confirmed
// migration becomes a placement intent the cluster reconciles
// (tie-break by priority, then node id) and the object's home executes.
// Checked per call, so an adapter built before StartCluster delegates
// from the moment the node joins; with no cluster attached it reports
// false with no reason and the engine acts alone.
func (n *Node) SubmitIntent(p adapt.Proposal) (accepted bool, reason string) {
	co := n.coord.Load()
	if co == nil {
		return false, ""
	}
	return co.Submit(wire.Intent{
		GUID:     p.GUID,
		Class:    p.Class,
		From:     co.Self(),
		To:       p.Endpoint,
		Proposer: co.ID(),
		Priority: p.Priority,
		Reason:   p.Rule + ": " + p.Reason,
	})
}

var (
	_ cluster.Runtime = (*clusterRuntime)(nil)
	_ adapt.Node      = (*Node)(nil)
)
