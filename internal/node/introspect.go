package node

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"rafda/internal/cluster"
	"rafda/internal/metrics"
	"rafda/internal/telemetry"
	"rafda/internal/trace"
	"rafda/internal/wire"
)

// Unified introspection plane (docs/OBSERVABILITY.md): one effect-free
// wire op — OpIntrospect — exposes everything a node knows about
// itself: every instrument in its metrics registry (activity, dedup,
// overload, shedding, latency digests, and per-peer rollups when
// telemetry is enabled), telemetry's object and class samples, the
// cluster's view (when attached), the control log of adapt decisions
// and cluster events, and the flight recorder's span ring.
// Effect-free means exactly that: serving an introspection request
// mutates nothing, takes no object gate, and rides the same dispatch
// path as OpPing, so it is safe to poll a wedged node.

// Introspection is the unified metrics snapshot served for the
// "metrics" section.  Optional planes marshal as absent rather than
// zeroed, so a reader can tell "telemetry disabled" from "no traffic".
type Introspection struct {
	Node       string   `json:"node"`
	Endpoints  []string `json:"endpoints,omitempty"`
	Exports    int      `json:"exports"`
	PoolShards int      `json:"pool_shards"`

	// Metrics enumerates the node's metrics registry, sorted by
	// instrument name and key (docs/OBSERVABILITY.md §3 names them).
	Metrics []metrics.Row `json:"metrics"`

	// Telemetry samples; nil slices when EnableTelemetry was never
	// called on this node.
	Objects []telemetry.ObjSample   `json:"objects,omitempty"`
	Classes []telemetry.ClassSample `json:"classes,omitempty"`

	Cluster *ClusterIntro `json:"cluster,omitempty"`

	// Trace is the flight recorder's ring occupancy, nil under
	// Config.NoTrace.
	Trace *trace.Stats `json:"trace,omitempty"`
}

// ClusterIntro is the coordinator's current view: membership,
// placement directory, replica sets and in-flight placement intents.
type ClusterIntro struct {
	Self        string             `json:"self"`
	Peers       []cluster.PeerInfo `json:"peers,omitempty"`
	Directory   []wire.DirEntry    `json:"directory,omitempty"`
	ReplicaSets []wire.ReplicaSet  `json:"replica_sets,omitempty"`
	Intents     []wire.Intent      `json:"intents,omitempty"`
}

// introspection assembles the unified snapshot.
func (n *Node) introspection() *Introspection {
	in := &Introspection{
		Node:       n.name,
		Endpoints:  n.Endpoints(),
		Exports:    n.exports.Len(),
		PoolShards: n.cache.Shards(),
		Metrics:    n.metrics.Snapshot(),
	}
	sort.Strings(in.Endpoints)
	if rec := n.telem.Load(); rec != nil {
		// A fresh cursor's first window is the cumulative snapshot.
		in.Objects, in.Classes = rec.NewWindow().Next()
		sort.Slice(in.Objects, func(i, j int) bool { return in.Objects[i].GUID < in.Objects[j].GUID })
		sort.Slice(in.Classes, func(i, j int) bool { return in.Classes[i].Class < in.Classes[j].Class })
	}
	if co := n.coord.Load(); co != nil {
		in.Cluster = &ClusterIntro{
			Self:        co.Self(),
			Peers:       co.Peers(),
			Directory:   co.Directory(),
			ReplicaSets: co.ReplicaSets(),
			Intents:     co.Intents(),
		}
	}
	if tr := n.tracer; tr != nil {
		st := tr.Stats()
		in.Trace = &st
	}
	return in
}

// Introspect renders one introspection section as JSON.  Sections:
//
//	"metrics" (or ""): the unified Introspection snapshot
//	"events":          the control log (adapt decisions and cluster
//	                   events), oldest first; kept under NoTrace too
//	"spans":           the flight recorder's ring, oldest first
//	"trace":           spans of the one trace whose hex id is arg
//
// It is the single implementation behind wire.OpIntrospect, the
// facade's IntrospectJSON, rafda-node's /debug/rafda endpoint and its
// SIGQUIT dump — every view of a node shows the same truth.
func (n *Node) Introspect(section, arg string) (string, error) {
	var v any
	switch section {
	case "", "metrics":
		v = n.introspection()
	case "events":
		v = n.Events()
	case "spans":
		if n.tracer == nil {
			return "", fmt.Errorf("node %s: tracing disabled", n.name)
		}
		v = n.tracer.Spans()
	case "trace":
		if n.tracer == nil {
			return "", fmt.Errorf("node %s: tracing disabled", n.name)
		}
		id, err := strconv.ParseUint(arg, 16, 64)
		if err != nil || id == 0 {
			return "", fmt.Errorf("node %s: introspect trace wants a hex trace id, got %q", n.name, arg)
		}
		spans := []trace.Span{}
		for _, sp := range n.tracer.Spans() {
			if sp.Trace == id {
				spans = append(spans, sp)
			}
		}
		v = spans
	default:
		return "", fmt.Errorf("node %s: unknown introspection section %q", n.name, section)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("node %s: introspect %s: %w", n.name, section, err)
	}
	return string(b), nil
}

// dispatchIntrospect serves wire.OpIntrospect: Method selects the
// section, GUID carries the hex trace id for "trace".  The snapshot
// travels as a JSON string — introspection is a debugging surface, and
// an opaque string keeps the wire layer ignorant of its shape.
func (n *Node) dispatchIntrospect(req *wire.Request) *wire.Response {
	out, err := n.Introspect(req.Method, req.GUID)
	if err != nil {
		return wire.Errorf(req, "%v", err)
	}
	return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: out}}
}
