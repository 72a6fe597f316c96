// Package node implements a RAFDA address space: a VM loaded with a
// transformed program, an exported-object table, policy-driven factory
// natives, proxy natives performing remote invocations, and servers for
// any subset of the transport protocols.  Together with the transformer
// it realises the paper's flexible distribution: the same program runs
// with any assignment of classes to nodes, decided by policy, and the
// assignment can change at run time via re-policy plus object migration.
//
// # Thread safety
//
// A Node is safe for concurrent use from any number of transport
// goroutines and host goroutines.  Inbound requests are dispatched in
// parallel and synchronise per target object: an invocation holds its
// target's invocation gate (vm.ExecOn) for its duration, so calls to
// different objects execute concurrently while calls to the same object
// — and migrations of it — serialise.  Migration holds the gate across
// its whole snapshot→ship→morph sequence, draining in-flight
// invocations first.  The export table, policy table and singleton
// table carry their own locks; activity counters are atomics.  The full
// lock hierarchy (connection → node → object) is documented in
// docs/CONCURRENCY.md.
package node

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"rafda/internal/cluster"
	"rafda/internal/dedup"
	"rafda/internal/intercept"
	"rafda/internal/metrics"
	"rafda/internal/policy"
	"rafda/internal/registry"
	"rafda/internal/telemetry"
	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/vm"
)

// Config configures a node.
type Config struct {
	// Name identifies the node in GUIDs and diagnostics.
	Name string
	// Result is the transformed program the node hosts.
	Result *transform.Result
	// Transports supplies the protocol implementations; nil means all
	// four defaults without network simulation.
	Transports *transport.Registry
	// Output receives the program's console output.
	Output io.Writer
	// VMOpts are extra VM options (step limits, clock).
	VMOpts []vm.Option
	// PoolSize is the per-endpoint connection pool width (shards per
	// peer); <= 0 takes transport.DefaultPoolShards() (GOMAXPROCS,
	// capped).  Outgoing invocations spread across the shards by
	// object-GUID affinity; gossip stays pinned to shard 0.
	PoolSize int
	// DedupWindow bounds the per-caller replay cache (completed dedup
	// entries retained per calling node); <= 0 takes
	// dedup.DefaultWindow.  See docs/CONCURRENCY.md §10.
	DedupWindow int
	// TraceSpans sizes the flight recorder's span ring (rounded up to a
	// power of two); <= 0 takes trace.DefaultSpans.  Memory is fixed at
	// construction and the recorder overwrites oldest — see
	// docs/OBSERVABILITY.md.
	TraceSpans int
	// NoTrace disables the flight recorder entirely.  Tracing is
	// always-on by default (the E14 experiment measures its overhead on
	// an echo tier: about 8 % CPU per call at GOMAXPROCS=2, over its 5 %
	// bar); this flag exists for that measurement and for
	// memory-constrained embeddings.
	NoTrace bool
	// Metrics, when non-nil, is the registry every plane of the node
	// takes its instruments from (activity, dedup, overload, shedding,
	// trace histograms); transport-side overload instruments land in it
	// too if the same registry is wired into the transports'
	// Options.Metrics, as the facade does.  Nil allocates a private one
	// — the instruments are always on; they are a few atomics.
	Metrics *metrics.Registry
	// Shed configures the proactive shedding interceptors (zero = all
	// off).  The policies read the shared "overload.inflight" gauge,
	// which the RRP transport maintains around each dispatch slot — so
	// they engage only behind transports that share the node's
	// registry, as the facade's do.  See internal/intercept and
	// docs/CONCURRENCY.md §16.
	Shed intercept.ShedConfig
}

// Node is one address space.
type Node struct {
	name    string
	result  *transform.Result
	machine *vm.VM
	reg     *transport.Registry
	exports *registry.Table
	pol     *policy.Table

	// mu guards servers and serialises Serve's endpoint publishes (not
	// VM state).
	mu      sync.Mutex
	servers []transport.Server
	closed  bool

	// cache holds one sharded connection pool per dialled endpoint
	// (Config.PoolSize shards, defaulting from GOMAXPROCS).  It is
	// shared with the cluster coordination plane (StartCluster), so
	// gossip rides the same multiplexed connections as invocations —
	// pinned to shard 0, so membership RTT pings stay comparable while
	// invocations spread across the pool by object-GUID affinity.
	cache *transport.ClientCache

	// epSnap is every endpoint the node serves, in serve order,
	// republished by Serve: the proxy fast paths (self-collapse
	// detection, caller stamping) read it on every call and must not
	// touch the node mutex.
	epSnap atomic.Pointer[[]served]

	// singMu guards discover's statics-proxy cache, one proxy per
	// remotely placed class and policy version.
	singMu     sync.Mutex
	singletons map[string]singletonEntry

	// Lock-free state: transports dispatch requests concurrently, so
	// request ids and instruments stay off the node mutex.
	reqSeq uint64

	// metrics is the node's instrument registry (never nil), the single
	// source of the introspection snapshot's "metrics" rows.  The
	// activity counters below are its "node.*" instruments: proxy
	// invocations sent, inbound program requests, inbound plane requests
	// (ping, gossip, introspection), constructions served, and
	// migrations shipped and adopted.  expiries counts calls whose
	// budget ran out in an object's gate queue, into the same
	// "overload.deadline_expiries" counter transport admission bumps.
	metrics                                                      *metrics.Registry
	callsOut, callsIn, planeIn, creates, migOut, migIn, expiries *metrics.Counter

	// telem is the optional metrics plane (nil = disabled, the zero-cost
	// default).  Loaded with one atomic read on the dispatch and
	// proxy-call hot paths; see docs/ADAPTIVE.md.
	telem atomic.Pointer[telemetry.Recorder]

	// coord is the optional cluster coordination plane (nil = not in a
	// cluster).  Loaded with one atomic read on the proxy hot path
	// (directory-first resolution) and in dispatch; see docs/CLUSTER.md.
	coord atomic.Pointer[cluster.Coordinator]

	// events is the control log: adapt decisions and cluster events
	// (events.go).
	events controlLog

	// volunteerState tracks callback-endpoint volunteering: a node
	// serving no transport starts serving lazily at first dial, so its
	// calls carry a real Caller endpoint and its affinity is actionable
	// (an ObjSample's Anon count otherwise records traffic no engine can
	// ever migrate toward).  It makes the attempt one-shot and keeps the
	// proxy hot path off the node mutex: 0 = untried, 1 = in progress,
	// 2 = settled (one atomic load thereafter).
	volunteerState atomic.Int32

	// Exactly-once plane (docs/CONCURRENCY.md §10): issuer stamps every
	// outgoing logical call with a (caller, seq, attempt) token;
	// dedupTab recognises duplicate deliveries of inbound tokened calls
	// and replays their recorded responses instead of re-executing.
	issuer   *dedup.Issuer
	dedupTab *dedup.Table

	// Replication plane (docs/REPLICATION.md).  The Result's effect
	// verdicts (transform.Result.ReadOnly, solved on the first query for
	// every node sharing the program) split invocations into provable
	// reads (routable to any lease-valid replica) and writes (serialised
	// through the lease-holding primary).  replPrim maps exported GUIDs
	// of objects this node primaries to their *primaryReplica
	// bookkeeping; replCopies maps replica GUIDs this node serves to
	// their *replicaCopy.  replActive short-circuits IsReplicated on
	// nodes that never replicate (one atomic load).
	replPrim   sync.Map
	replCopies sync.Map
	replActive atomic.Bool

	// tracer is the always-on flight recorder (nil only under
	// Config.NoTrace).  Set once at construction, read lock-free at
	// every emission site; emission itself is lock-free and never
	// blocks (internal/trace, docs/OBSERVABILITY.md).
	tracer *trace.Recorder

	// Dispatch chain (chain.go): the precomposed interceptor pipeline
	// every inbound request runs through, swapped atomically by Use.
	// shedIcs holds the constructed shedding interceptors so a rebuild
	// preserves their live state (per-tenant inflight, CoDel cycle);
	// userIcs (under mu) is the user tier's accumulated order.
	chain   atomic.Pointer[intercept.Chain]
	shedIcs []intercept.Interceptor
	userIcs []intercept.Interceptor
}

// nodeSeq decorrelates caller-incarnation ids of same-named nodes in
// one process (tests build many); ids stay deterministic within a run.
var nodeSeq atomic.Uint64

type singletonEntry struct {
	val     vm.Value
	version uint64
}

// New builds a node over a transformed program and registers the factory
// and proxy natives.  The node's VM runs on cfg.Result.Program itself:
// every node built from one Result shares it.
func New(cfg Config) (*Node, error) {
	if cfg.Result == nil {
		return nil, fmt.Errorf("node %q: nil transform result", cfg.Name)
	}
	if cfg.Name == "" {
		cfg.Name = "node"
	}
	opts := cfg.VMOpts
	if cfg.Output != nil {
		opts = append(opts, vm.WithOutput(cfg.Output))
	}
	machine, err := vm.New(cfg.Result.Program, opts...)
	if err != nil {
		return nil, fmt.Errorf("node %q: %w", cfg.Name, err)
	}
	mreg := cfg.Metrics
	if mreg == nil {
		mreg = metrics.New()
	}
	reg := cfg.Transports
	if reg == nil {
		// Defaulted transports share the node's registry, so
		// transport-admission rejects land in the same snapshot.
		reg = transport.Default(transport.Options{Metrics: mreg})
	}
	n := &Node{
		name:       cfg.Name,
		result:     cfg.Result,
		machine:    machine,
		reg:        reg,
		exports:    registry.New(cfg.Name),
		pol:        policy.NewTable(),
		cache:      transport.NewClientCachePool(reg, cfg.PoolSize),
		singletons: make(map[string]singletonEntry),
		issuer:     dedup.NewIssuer(fmt.Sprintf("%s!%d", cfg.Name, nodeSeq.Add(1))),
		dedupTab:   dedup.NewTableIn(mreg, cfg.DedupWindow),
		metrics:    mreg,
		callsOut:   mreg.Counter("node.calls_out"),
		callsIn:    mreg.Counter("node.calls_in"),
		planeIn:    mreg.Counter("node.plane_in"),
		creates:    mreg.Counter("node.creates"),
		migOut:     mreg.Counter("node.migrations_out"),
		migIn:      mreg.Counter("node.migrations_in"),
		expiries:   mreg.Counter("overload.deadline_expiries"),
	}
	if !cfg.NoTrace {
		n.tracer = trace.NewIn(mreg, cfg.Name, cfg.TraceSpans)
		// Transport failover attempts become spans on the trace of the
		// request that failed over, so a call tree shows every redial
		// between a client span and its eventual server span.
		n.cache.SetFailoverObserver(n.emitFailover)
	}
	n.registerFactoryNatives()
	n.registerProxyNatives()
	// Assemble the dispatch chain last: the built-in interceptors close
	// over fully-initialised node state.  Shedding interceptors are
	// constructed once here and reused across Use rebuilds, so their
	// live state (per-tenant inflight, CoDel drop cycle) survives.
	if cfg.Shed.PriorityAt > 0 {
		n.shedIcs = append(n.shedIcs, intercept.Priority(cfg.Shed.PriorityAt, mreg))
	}
	if cfg.Shed.FairShareAt > 0 {
		n.shedIcs = append(n.shedIcs, intercept.FairShare(cfg.Shed.FairShareAt, mreg))
	}
	if cfg.Shed.CoDelTarget > 0 {
		n.shedIcs = append(n.shedIcs, intercept.CoDel(cfg.Shed.CoDelTarget, cfg.Shed.CoDelInterval, mreg, nil))
	}
	n.chain.Store(n.buildChain(nil))
	return n, nil
}

// Metrics returns the node's instrument registry (never nil).
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// VM returns the node's interpreter.
func (n *Node) VM() *vm.VM { return n.machine }

// Policy returns the node's mutable policy table.
func (n *Node) Policy() *policy.Table { return n.pol }

// EnableTelemetry switches on the node's metrics plane (idempotent) and
// returns the recorder.  Dispatch and proxy-call sites start recording
// per-object caller affinity, byte volumes and latency, and the per-peer
// rollups appear in the node's registry as peer.calls, peer.bytes and
// peer.rtt_ns; until then the only per-call cost is one nil atomic load.
func (n *Node) EnableTelemetry() *telemetry.Recorder {
	if r := n.telem.Load(); r != nil {
		return r
	}
	n.telem.CompareAndSwap(nil, telemetry.NewRecorder(n.metrics))
	return n.telem.Load()
}

// Endpoints returns every endpoint this node is serving, in serve order.
func (n *Node) Endpoints() []string {
	eps := n.served()
	out := make([]string, len(eps))
	for i, s := range eps {
		out[i] = s.ep
	}
	return out
}

// IsMigratable reports whether obj is currently a live local transformed
// instance — the only thing Migrate can move.  The answer can go stale
// under a concurrent migration; Migrate re-checks under the gate, so a
// stale true degrades to a forwarding no-op, never a double ship.
func (n *Node) IsMigratable(obj *vm.Object) bool {
	if obj == nil {
		return false
	}
	return transform.MarkOf(obj.Class()).Kind == transform.KindOLocal
}

// Exports returns the number of exported objects.
func (n *Node) Exports() int { return n.exports.Len() }

// Serve starts listening on the given protocol ("" addr picks a free
// port, or an auto name for inproc) and returns the endpoint.
func (n *Node) Serve(proto, addr string) (string, error) {
	t, err := n.reg.Get(proto)
	if err != nil {
		return "", err
	}
	srv, err := t.Listen(addr, n.dispatch)
	if err != nil {
		return "", fmt.Errorf("node %s serve %s: %w", n.name, proto, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// A Serve racing Close (e.g. a volunteered callback on an in-flight
	// proxy call) must not leak a live listener on a closed node.
	if n.closed {
		_ = srv.Close()
		return "", fmt.Errorf("node %s serve %s: node closed", n.name, proto)
	}
	n.servers = append(n.servers, srv)
	cur := n.served()
	next := append(cur[:len(cur):len(cur)], served{proto, srv.Endpoint()})
	n.epSnap.Store(&next)
	return srv.Endpoint(), nil
}

// served is one endpoint a node serves.
type served struct{ proto, ep string }

// served returns the published endpoint snapshot (lock-free).
func (n *Node) served() []served {
	if eps := n.epSnap.Load(); eps != nil {
		return *eps
	}
	return nil
}

// Endpoint returns this node's endpoint for proto ("" when not serving);
// the latest one when it serves proto more than once.
func (n *Node) Endpoint(proto string) string {
	eps := n.served()
	for i := len(eps) - 1; i >= 0; i-- {
		if eps[i].proto == proto {
			return eps[i].ep
		}
	}
	return ""
}

// anyEndpoint returns proto's endpoint when the node serves proto, else
// the endpoint it served first: every reference handed out without a
// preference names the same protocol, the one the node was set up on,
// not whichever a map iteration yields (lock-free: reads the published
// snapshot).
func (n *Node) anyEndpoint(proto string) string {
	if ep := n.Endpoint(proto); ep != "" {
		return ep
	}
	if eps := n.served(); len(eps) > 0 {
		return eps[0].ep
	}
	return ""
}

// callerEndpoint returns the endpoint peers should attribute this
// node's calls to (and can call back on), preferring proto.  A node
// serving no transport would make anonymous calls, whose affinity can
// never attract a migration, so its first outbound call volunteers: it
// lazily starts a server for the dialled protocol on an ephemeral
// address.  The attempt is one-shot (whichever protocol dials first
// wins; a node that cannot listen stays a pure anonymous client), and
// its outcome is a single atomic load afterwards — like the endpoint snapshot, this path must not
// touch the node mutex (it runs on every proxy invocation).
func (n *Node) callerEndpoint(proto string) string {
	if ep := n.anyEndpoint(proto); ep != "" {
		return ep
	}
	if proto == "" || n.volunteerState.Load() != 0 ||
		!n.volunteerState.CompareAndSwap(0, 1) {
		return ""
	}
	_, _ = n.Serve(proto, "") // refused (no leak) if the node is closed
	n.volunteerState.Store(2)
	return n.anyEndpoint(proto)
}

// Close shuts the servers and cached clients.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	servers := n.servers
	n.servers = nil
	n.mu.Unlock()

	var firstErr error
	for _, s := range servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := n.cache.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// PoolShards returns the per-endpoint connection pool width.
func (n *Node) PoolShards() int { return n.cache.Shards() }

// nextReqID issues a request id (lock-free; callable from any goroutine).
func (n *Node) nextReqID() uint64 {
	return atomic.AddUint64(&n.reqSeq, 1)
}

// RunMain executes the transformed program's entry point.
func (n *Node) RunMain(mainClass string) error {
	class, method := n.result.MainEntry(mainClass)
	if _, err := n.machine.Invoke(class, method, vm.Value{}, nil); err != nil {
		return fmt.Errorf("node %s: run %s.%s: %w", n.name, class, method, err)
	}
	return nil
}

// InvokeStatic calls an original static method.  It is the host-language
// entry point used by examples, tests and benchmarks.
func (n *Node) InvokeStatic(class, method string, args ...vm.Value) (vm.Value, error) {
	if !n.result.Substitutable(class) {
		return n.machine.Invoke(class, method, vm.Value{}, args)
	}
	return n.callStatics(class, method, args)
}

// ReadStatic reads an original static field.
func (n *Node) ReadStatic(class, field string) (vm.Value, error) {
	if !n.result.Substitutable(class) {
		return n.machine.GetStatic(class, field)
	}
	return n.callStatics(class, transform.Getter(field), nil)
}

// WriteStatic writes an original static field.
func (n *Node) WriteStatic(class, field string, val vm.Value) error {
	if !n.result.Substitutable(class) {
		return n.machine.SetStatic(class, field, val)
	}
	_, err := n.callStatics(class, transform.Setter(field), []vm.Value{val})
	return err
}

// callStatics does what a transformed class's factory forwarder does —
// discover() the statics holder (the local singleton, or a statics proxy
// per policy), then call it — but holding the holder's invocation gate, as
// the same call arriving over the wire would: host and wire callers of one
// class's statics are one monitor.
func (n *Node) callStatics(class, method string, args []vm.Value) (vm.Value, error) {
	return n.hostCall(func(env *vm.Env) (vm.Value, *vm.Thrown, error) {
		holder, thrown, err := n.discover(env, class)
		if thrown != nil || err != nil {
			return vm.Value{}, thrown, err
		}
		return env.CallGated(holder.O, method, args)
	})
}

// CallOn invokes a method on an object reference previously obtained
// from this node (e.g. via InvokeStatic).  The call holds the target's
// invocation gate, so host-driven calls obey the same per-object
// monitor discipline as inbound remote invocations: CallOn on different
// objects runs in parallel, CallOn on one object serialises, and a
// migration of the object cannot interleave with the call.  It is the
// call a collapsed proxy makes (callLocal), entered from the host, so a
// write on a replicated primary reaches every replica before CallOn
// returns — the host's ack is an ack like any caller's.
func (n *Node) CallOn(recv vm.Value, method string, args ...vm.Value) (vm.Value, error) {
	if recv.K == 0 || recv.O == nil {
		return vm.Value{}, fmt.Errorf("node %s: CallOn with nil receiver", n.name)
	}
	return n.hostCall(func(env *vm.Env) (vm.Value, *vm.Thrown, error) {
		return n.callLocal(env, recv.O, method, args)
	})
}

// hostCall runs one host-entered call in a fresh execution, reporting a
// program exception that escapes it as *vm.UncaughtError.
func (n *Node) hostCall(call func(env *vm.Env) (vm.Value, *vm.Thrown, error)) (res vm.Value, err error) {
	n.machine.Exec(func(env *vm.Env) {
		var thrown *vm.Thrown
		res, thrown, err = call(env)
		if err == nil && thrown != nil {
			cls, msg := vm.ThrownMessage(thrown)
			err = &vm.UncaughtError{Class: cls, Message: msg}
		}
	})
	if err != nil {
		return vm.Value{}, err
	}
	return res, nil
}
