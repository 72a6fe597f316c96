package rafda

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rafda/internal/intercept"
	"rafda/internal/ir"
	"rafda/internal/metrics"
	"rafda/internal/netsim"
	"rafda/internal/node"
	"rafda/internal/transport"
	"rafda/internal/vm"
)

// NetProfile configures simulated network conditions for a node's
// transports (zero value: the real loopback network untouched).
type NetProfile struct {
	Latency      time.Duration
	Jitter       time.Duration
	BandwidthBps int64
	// Faults injects deterministic per-connection chaos (seeded frame
	// drop/duplicate/kill-mid-flight schedules); nil leaves the link
	// healthy.  Drives the E12 fault-injection experiment.
	Faults *NetFaults
}

// NetFaults is a seeded per-mille schedule of injected write faults,
// applied independently per connection (see internal/netsim.Faults).
type NetFaults = netsim.Faults

// Predefined profiles mirroring internal/netsim.
var (
	NetLAN    = NetProfile{Latency: 100 * time.Microsecond, BandwidthBps: 1e9}
	NetCampus = NetProfile{Latency: 500 * time.Microsecond, Jitter: 100 * time.Microsecond, BandwidthBps: 1e8}
	NetWAN    = NetProfile{Latency: 20 * time.Millisecond, Jitter: 2 * time.Millisecond, BandwidthBps: 1e7}
)

func (np NetProfile) profile() netsim.Profile {
	return netsim.Profile{
		Latency:      np.Latency,
		Jitter:       np.Jitter,
		BandwidthBps: np.BandwidthBps,
		Seed:         1,
		Faults:       np.Faults,
	}
}

// LimitsConfig groups a node's server-capacity knobs.
type LimitsConfig struct {
	// MaxInflight bounds how many requests this node's rrp server
	// dispatches concurrently per connection; <= 0 takes the transport
	// default (256).  Together with per-call deadlines it is the
	// reactive overload-control knob: deadlined calls that cannot get a
	// dispatch slot within their budget are rejected at admission and
	// counted in IntrospectJSON's "overload.*" rows
	// (docs/OBSERVABILITY.md).  It is also the saturation depth the
	// Shed policies act relative to.
	MaxInflight int
	// DedupWindow bounds the per-caller replay cache of the
	// exactly-once plane (completed call responses retained for
	// duplicate replay); <= 0 takes the default (1024).  See
	// docs/CONCURRENCY.md §10.
	DedupWindow int
}

// TracingConfig groups the distributed-tracing plane knobs.
type TracingConfig struct {
	// Spans sizes the always-on flight recorder's span ring (rounded up
	// to a power of two; <= 0 takes the default, 4096).  The ring is
	// fixed memory: old spans are overwritten, never spilled
	// (docs/OBSERVABILITY.md).
	Spans int
	// Disable turns the tracing plane off entirely — no flight
	// recorder, no span extensions on outgoing requests.  The E14
	// experiment measures what this saves: about 8 % CPU per call on
	// its echo tier at GOMAXPROCS=2, against a 5 % bar it does not yet
	// meet (EXPERIMENTS.md).
	Disable bool
}

// ShedConfig groups the proactive load-shedding knobs (zero = all
// policies off): strict-priority admission (PriorityAt), per-tenant
// fair share (FairShareAt) and CoDel on the measured dispatch-slot wait
// (CoDelTarget, CoDelInterval); internal/intercept.ShedConfig documents
// each field.  The policies run as dispatch interceptors after the
// control plane and before the dedup window; each refusal is an
// infrastructure-error response carrying a "load-shed:" marker and is
// counted in IntrospectJSON's "shed.*" rows.  See docs/INTERCEPT.md and
// docs/CONCURRENCY.md §16.
type ShedConfig = intercept.ShedConfig

// NodeConfig configures a RAFDA address space.
type NodeConfig struct {
	Name    string
	Output  io.Writer
	Network NetProfile
	// MaxSteps overrides the instruction budget of one execution (an
	// inbound call, a RunMain); 0 keeps the default, 200 M.  It stops a
	// runaway method and does not accumulate over the node's lifetime.
	MaxSteps int64
	// PoolSize is the per-peer connection pool width: outgoing calls
	// spread across this many multiplexed connections per endpoint,
	// routed by object affinity so per-object ordering is preserved.
	// <= 0 sizes the pool from GOMAXPROCS (capped at 8); 1 restores the
	// historical one-connection-per-peer shape.
	PoolSize int

	// Limits, Tracing and Shed are the grouped server-policy surface:
	// capacity, observability and proactive shedding in one place.
	Limits  LimitsConfig
	Tracing TracingConfig
	Shed    ShedConfig
}

// CallContext is the per-call state a dispatch interceptor sees: the
// inbound wire request plus server-local scratch (measured slot wait,
// gate measurements).  See internal/intercept.CallCtx for field docs.
type CallContext = intercept.CallCtx

// DispatchHandler continues an intercepted dispatch (the "next" of a
// middleware pipeline).
type DispatchHandler = intercept.Handler

// Interceptor is one composable dispatch middleware stage: it may
// short-circuit (return without calling next), pass through, or
// post-process the response.  Built-in concerns (shedding, dedup,
// tracing) are interceptors of the same shape; user interceptors run
// between the shedding tier and the dedup window.
type Interceptor = intercept.Interceptor

// Node is one address space hosting the transformed program.
type Node struct {
	n *node.Node

	// adaptMu guards adapters and clusters (attached via StartAdapter /
	// NewAdapter / JoinCluster, stopped on Close).
	adaptMu  sync.Mutex
	adapters []*Adapter
	clusters []*Cluster
}

// attachAdapter registers an adapter for shutdown on Close.
func (n *Node) attachAdapter(a *Adapter) {
	n.adaptMu.Lock()
	n.adapters = append(n.adapters, a)
	n.adaptMu.Unlock()
}

// attachCluster registers a cluster handle for shutdown on Close.
func (n *Node) attachCluster(c *Cluster) {
	n.adaptMu.Lock()
	n.clusters = append(n.clusters, c)
	n.adaptMu.Unlock()
}

// NewNode builds a node for the transformed program.
func (t *Transformed) NewNode(cfg NodeConfig) (*Node, error) {
	// One metrics registry shared by the node and its transports:
	// admission rejects at the rrp server and gate-queue expiries at
	// dispatch land in the same introspection snapshot, and the shedding
	// interceptors read the same inflight gauge the rrp server maintains.
	mreg := metrics.New()
	reg := transport.Default(transport.Options{
		Profile:     cfg.Network.profile(),
		MaxInflight: cfg.Limits.MaxInflight,
		Metrics:     mreg,
	})
	var vmOpts []vm.Option
	if cfg.MaxSteps > 0 {
		vmOpts = append(vmOpts, vm.WithMaxSteps(cfg.MaxSteps))
	}
	n, err := node.New(node.Config{
		Name:              cfg.Name,
		Result:            t.res,
		Transports:        reg,
		Output:            cfg.Output,
		VMOpts:            vmOpts,
		VolunteerCallback: true,
		PoolSize:          cfg.PoolSize,
		DedupWindow:       cfg.Limits.DedupWindow,
		TraceSpans:        cfg.Tracing.Spans,
		NoTrace:           cfg.Tracing.Disable,
		Metrics:           mreg,
		Shed:              cfg.Shed,
	})
	if err != nil {
		return nil, err
	}
	return &Node{n: n}, nil
}

// Use appends dispatch interceptors to the node's chain at run time, in
// order, between the shedding tier and the dedup window; they run on
// every inbound effectful request (docs/INTERCEPT.md).  The swap is
// atomic with respect to in-flight dispatches: calls already running
// finish on the chain they started on.
func (n *Node) Use(ics ...Interceptor) { n.n.Use(ics...) }

// Serve starts listening on a protocol ("inproc", "rrp", "soap",
// "json"); empty addr picks a free port.  Returns the endpoint.
func (n *Node) Serve(proto, addr string) (string, error) { return n.n.Serve(proto, addr) }

// Endpoint returns this node's endpoint for proto, if serving.
func (n *Node) Endpoint(proto string) string { return n.n.Endpoint(proto) }

// Close shuts down the node's adapters, cluster membership, servers and
// connections.
func (n *Node) Close() error {
	n.adaptMu.Lock()
	adapters := n.adapters
	clusters := n.clusters
	n.adapters = nil
	n.clusters = nil
	n.adaptMu.Unlock()
	for _, a := range adapters {
		a.Stop()
	}
	for _, c := range clusters {
		c.Stop()
	}
	return n.n.Close()
}

// PlaceClass places future instances (and the statics singleton) of
// class at the node serving endpoint; the empty endpoint, "local" or
// one of this node's own endpoints places them locally.  Placement
// changes take effect immediately for subsequent creations and
// discoveries — the §4 dynamic reconfiguration lever.  In a cluster the
// placement is a new policy epoch every member converges on.
func (n *Node) PlaceClass(class, endpoint string) error { return n.n.PlaceClass(class, endpoint) }

// PlaceDefault sets the fallback placement for all classes.
func (n *Node) PlaceDefault(endpoint string) error { return n.n.PlaceDefault(endpoint) }

// RunMain executes the program entry point on this node.
func (n *Node) RunMain(mainClass string) error { return n.n.RunMain(mainClass) }

// Call invokes an original static method, converting Go arguments
// (int, int64, float64, bool, string, *Ref) and the result likewise.
func (n *Node) Call(class, method string, args ...any) (any, error) {
	vargs, err := toVMValues(args)
	if err != nil {
		return nil, err
	}
	res, err := n.n.InvokeStatic(class, method, vargs...)
	if err != nil {
		return nil, err
	}
	return fromVMValue(res), nil
}

// CallOn invokes a method on an object handle.
func (n *Node) CallOn(ref *Ref, method string, args ...any) (any, error) {
	if ref == nil {
		return nil, fmt.Errorf("nil object handle")
	}
	vargs, err := toVMValues(args)
	if err != nil {
		return nil, err
	}
	res, err := n.n.CallOn(ref.v, method, vargs...)
	if err != nil {
		return nil, err
	}
	return fromVMValue(res), nil
}

// ReadStatic reads an original static field.
func (n *Node) ReadStatic(class, field string) (any, error) {
	res, err := n.n.ReadStatic(class, field)
	if err != nil {
		return nil, err
	}
	return fromVMValue(res), nil
}

// WriteStatic writes an original static field.
func (n *Node) WriteStatic(class, field string, val any) error {
	v, err := toVMValue(val)
	if err != nil {
		return err
	}
	return n.n.WriteStatic(class, field, v)
}

// Migrate moves the object behind ref to the node at endpoint, morphing
// the local instance into a proxy in place (Figure 1's Cp substitution
// applied to a live object).
func (n *Node) Migrate(ref *Ref, endpoint string) error {
	if ref == nil {
		return fmt.Errorf("nil object handle")
	}
	return n.n.Migrate(ref.v, endpoint)
}

// Replicate installs read-only copies of the object behind ref at the
// given endpoints.  This node stays the lease-holding primary: reads
// may be served by any live replica while its lease holds, writes
// serialise here and fan out to every copy before they acknowledge
// (docs/REPLICATION.md).  Requires cluster membership (JoinCluster).
func (n *Node) Replicate(ref *Ref, endpoints ...string) error {
	if ref == nil {
		return fmt.Errorf("nil object handle")
	}
	return n.n.Replicate(ref.v, endpoints...)
}

// IsReplicated reports whether the object behind ref is part of a
// replica set on this node, as primary or copy.
func (n *Node) IsReplicated(ref *Ref) bool {
	return ref != nil && ref.v.O != nil && n.n.IsReplicated(ref.v.O)
}

// NodeStats counts node activity.  RemoteCallsOut counts proxy
// invocations only — the forward-hop count — not every leg the node
// sends.
type NodeStats struct {
	RemoteCallsOut uint64
	RemoteCallsIn  uint64
	Creates        uint64
	MigrationsOut  uint64
	MigrationsIn   uint64
	Exports        int
}

// Stats returns a snapshot of activity counters.
func (n *Node) Stats() NodeStats {
	m := n.n.Metrics()
	return NodeStats{
		RemoteCallsOut: m.Counter("node.calls_out").Load(),
		RemoteCallsIn:  m.Counter("node.calls_in").Load(),
		Creates:        m.Counter("node.creates").Load(),
		MigrationsOut:  m.Counter("node.migrations_out").Load(),
		MigrationsIn:   m.Counter("node.migrations_in").Load(),
		Exports:        n.n.Exports(),
	}
}

// DedupStats counts the exactly-once plane's activity at one node:
// duplicate deliveries suppressed (replayed, parked behind the first
// attempt, or rejected as stale) and the bounded dedup-window occupancy.
type DedupStats struct {
	ReplayHits       uint64
	ParkedDuplicates uint64
	StaleRejected    uint64
	Retired          uint64
	Adopted          uint64
	Entries          int64
	EntriesHighWater int64
	Windows          int64
}

// Suppressed returns the total duplicate deliveries that did not
// re-execute.
func (s DedupStats) Suppressed() uint64 {
	return s.ReplayHits + s.ParkedDuplicates + s.StaleRejected
}

// DedupStats snapshots the exactly-once plane's counters.  Always live,
// independent of EnableTelemetry.
func (n *Node) DedupStats() DedupStats {
	m := n.n.Metrics()
	entries := m.Gauge("dedup.entries")
	return DedupStats{
		ReplayHits:       m.Counter("dedup.replay_hits").Load(),
		ParkedDuplicates: m.Counter("dedup.parked").Load(),
		StaleRejected:    m.Counter("dedup.stale_rejected").Load(),
		Retired:          m.Counter("dedup.retired").Load(),
		Adopted:          m.Counter("dedup.adopted").Load(),
		Entries:          entries.Load(),
		EntriesHighWater: entries.HighWater(),
		Windows:          m.Gauge("dedup.windows").Load(),
	}
}

// ShedSample is the load-shedding plane's refusals by priority class
// (decimal) and by tenant (caller endpoint, or "~other" past the
// table's bound); a map is nil when nothing was shed on its axis.
type ShedSample struct {
	ByPriority map[string]uint64
	ByTenant   map[string]uint64
}

// ShedStats snapshots the cumulative shed tables, read from the
// "shed.priority" and "shed.fairshare" rows of the metrics registry.
func (n *Node) ShedStats() ShedSample {
	var s ShedSample
	for _, r := range n.n.Metrics().Snapshot() {
		var m *map[string]uint64
		switch r.Name {
		case "shed.priority":
			m = &s.ByPriority
		case "shed.fairshare":
			m = &s.ByTenant
		default:
			continue
		}
		if *m == nil {
			*m = make(map[string]uint64)
		}
		(*m)[r.Key] = uint64(r.Value)
	}
	return s
}

// IntrospectJSON renders one introspection section of this node as
// JSON — the same snapshot wire.OpIntrospect serves to remote callers
// (rafdac's trace/top views, rafda-node's /debug/rafda endpoint).
// Sections: "metrics" (or ""), the unified counters/histograms
// snapshot; "events", the control log (Events) oldest-first; "spans",
// the flight recorder's ring oldest-first; "trace", the spans of the
// one trace whose hex id is arg.
func (n *Node) IntrospectJSON(section, arg string) (string, error) {
	return n.n.Introspect(section, arg)
}

// Event is one entry of the node's control log: an adapter decision
// (Adapt) or a cluster coordination event (Cluster), stamped with a
// monotonic Seq and the time it was logged.
type Event = node.Event

// Events returns the node's control log, oldest first: every decision
// its adapters made and every event of its cluster membership, the most
// recent 1024 of them.  The log is kept even with tracing disabled.
func (n *Node) Events() []Event { return n.n.Events() }

// Ref is an opaque handle to a program object owned by some node.
type Ref struct {
	v vm.Value
}

// ClassName reports the handle's current dynamic class (a proxy class
// name after migration).
func (r *Ref) ClassName() string {
	if r.v.O == nil {
		return "null"
	}
	return r.v.O.ClassName()
}

func toVMValues(args []any) ([]vm.Value, error) {
	out := make([]vm.Value, len(args))
	for i, a := range args {
		v, err := toVMValue(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func toVMValue(a any) (vm.Value, error) {
	switch t := a.(type) {
	case nil:
		return vm.NullV(), nil
	case int:
		return vm.IntV(int64(t)), nil
	case int64:
		return vm.IntV(t), nil
	case float64:
		return vm.FloatV(t), nil
	case bool:
		return vm.BoolV(t), nil
	case string:
		return vm.StringV(t), nil
	case *Ref:
		return t.v, nil
	default:
		return vm.Value{}, fmt.Errorf("unsupported Go value of type %T", a)
	}
}

func fromVMValue(v vm.Value) any {
	switch v.K {
	case 0, ir.KindVoid:
		return nil
	case ir.KindBool:
		return v.Bool()
	case ir.KindInt:
		return v.I
	case ir.KindFloat:
		return v.F
	case ir.KindString:
		return v.S
	default:
		return &Ref{v: v}
	}
}
