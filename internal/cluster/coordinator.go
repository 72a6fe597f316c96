// Package cluster is the coordination plane that turns a set of
// independent RAFDA nodes into one cluster: gossip-based membership with
// liveness (heartbeat + suspicion), a versioned placement directory
// (object GUID → current home, class → placement epoch) every member
// converges on, and reconciliation of placement intents so the per-node
// adaptive engines propose/reconcile/act instead of acting alone —
// including multi-hop decisions, where node A's view of the gossiped
// affinity evidence lets it propose moving an object it neither hosts
// nor receives (B→C, proposer A).
//
// Gossip piggybacks on the node's existing multiplexed connections: a
// round is one OpGossip request whose response carries the receiver's
// payload back (push-pull), so one round trip synchronises both peers
// and no second socket or protocol exists.
//
// # Thread safety and lock hierarchy
//
// The coordinator owns one mutex.  It is held only for in-memory state
// transitions — merging payloads, advancing the heartbeat, reconciling
// intents — and never across a network call or a migration: Tick
// collects due work under the lock, releases it, then gossips and
// executes.  HandleGossip (the dispatch-side entry point) merges and
// replies without calling out, so two nodes gossiping at each other
// concurrently cannot deadlock.  In the system-wide hierarchy the
// coordinator lock sits beside the node runtime, above nothing: code
// holding it may not touch connections, VM state or object gates
// (docs/CLUSTER.md, docs/CONCURRENCY.md).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafda/internal/wire"
)

// Runtime is the node-side capability set the coordinator drives.  All
// methods must be safe for concurrent use; Call and MigrateGUID may
// block on the network and are only invoked outside the coordinator
// lock.
type Runtime interface {
	// Call performs one request against endpoint through the node's
	// shared client cache, so gossip rides the connections invocations
	// already keep open.
	Call(endpoint string, req *wire.Request) (*wire.Response, error)
	// MigrateGUID migrates the locally hosted export guid to endpoint
	// and returns its new remote reference.
	MigrateGUID(guid, endpoint string) (wire.RemoteRef, error)
	// OwnsGUID reports whether guid is exported here as a live local
	// (migratable) object — i.e. this node is the object's home.
	OwnsGUID(guid string) bool
	// AffinitySamples returns window-delta caller-affinity rollups for
	// the hottest locally hosted objects (at most max), the evidence
	// gossip disseminates for multi-hop decisions.
	AffinitySamples(max int) []wire.ObjAffinity
	// ObservePeerRTT folds one gossip round trip into the node's
	// telemetry plane, keeping RTT estimates fresh for idle peers.
	ObservePeerRTT(endpoint string, d time.Duration)
	// ApplyClassPlacement points the node's policy table for class at
	// endpoint ("" = local placement); every gossiped class placement
	// epoch is applied, converging creation policy cluster-wide.
	ApplyClassPlacement(class, endpoint string) error
	// Promote is called after this node promotes itself to primary of a
	// replica set whose old primary died: guid is the object's
	// cluster-wide key, selfGUID this node's replica export that now
	// carries the state.  The node re-routes writes from here
	// (RecordMove).  Called outside the coordinator lock.
	Promote(guid, class, selfGUID string)
	// Demote is called when a Version merge shows this node was deposed
	// as guid's primary while partitioned (split-brain repair).  Called
	// outside the coordinator lock.
	Demote(guid string)
	// RecordEvent appends one coordination event to the node's control
	// log.  Called outside the coordinator lock, before Config.OnEvent.
	RecordEvent(e Event)
}

// Config tunes a coordinator.  Zero fields take the defaults.
type Config struct {
	// ID is this node's unique cluster identity (its name); intent
	// reconciliation tie-breaks on it, so it must differ across members.
	ID string
	// Self is this node's cluster endpoint — the address peers gossip
	// to, and the home endpoint in directory entries for local objects.
	Self string
	// Runtime is the node-side capability set (required).
	Runtime Runtime
	// Heartbeat is the timed loop's tick period (Start); manual Tick
	// drives deterministic harnesses instead.
	Heartbeat time.Duration
	// Fanout is how many peers each tick gossips to.
	Fanout int
	// Propose enables the multi-hop rule on this member: evaluate the
	// gossiped affinity evidence and propose migrations anywhere in the
	// cluster.  Any subset of members may propose; reconciliation keeps
	// them consistent.
	Propose bool
	// OnEvent observes every event as it is logged (called outside the
	// coordinator lock, after Runtime.RecordEvent).
	OnEvent func(Event)
}

// Defaults.
const (
	DefaultHeartbeat = 100 * time.Millisecond
	DefaultFanout    = 2
)

// Fixed tuning: knobs no deployment has needed to turn, all counted in
// ticks (heartbeats) except the multi-hop rule's two evidence bars.
const (
	// suspectAfter ticks without a heartbeat advance turn a peer
	// suspect; deadAfter, dead.
	suspectAfter = 5
	deadAfter    = 15
	// settleTicks is how long a winning intent must stay the winner
	// before the object's home executes it — the reconciliation window
	// in which a conflicting higher-priority intent can still arrive.
	settleTicks = 2
	// cooldownTicks refuses new intents for an object for this many
	// ticks after it migrated — the cluster-wide ping-pong guard.
	cooldownTicks = 16
	// intentTTL drops intents not re-asserted for this many ticks.
	intentTTL = 8
	// threshold is the dominant-caller share a multi-hop proposal
	// needs; minCalls the rollup activity below which none is made.
	threshold = 0.6
	minCalls  = 16
	// leaseTicks is how many local ticks a replica's read lease lasts
	// after direct primary contact (docs/REPLICATION.md).  It matches
	// the suspicion ladder: a replica stops serving reads at the same
	// horizon its peers would start doubting the link that stopped
	// renewing it.
	leaseTicks = suspectAfter
	// Affinity rollups not refreshed for rollupTTL ticks drop, and each
	// tick gossips at most maxRollups local samples.
	rollupTTL  = 4
	maxRollups = 8
)

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.Fanout <= 0 {
		c.Fanout = DefaultFanout
	}
	return c
}

// EventKind names what an Event records; it is the kind's JSON text.
type EventKind string

// The kinds of Event.
const (
	EventPeerJoin       EventKind = "peer-join"
	EventPeerSuspect    EventKind = "peer-suspect"
	EventPeerDead       EventKind = "peer-dead"
	EventPeerLeave      EventKind = "peer-leave"
	EventIntent         EventKind = "intent"
	EventPropose        EventKind = "propose"
	EventMigrate        EventKind = "migrate"
	EventMigrateFail    EventKind = "migrate-fail"
	EventDir            EventKind = "dir"
	EventClassApply     EventKind = "class-apply"
	EventGossipFail     EventKind = "gossip-fail"
	EventReplicaSet     EventKind = "replica-set"
	EventReplicaEvict   EventKind = "replica-evict"
	EventReplicaDrop    EventKind = "replica-drop"
	EventReplicaPromote EventKind = "replica-promote"
	EventReplicaDemote  EventKind = "replica-demote"
)

// Event is one observable coordination occurrence, for the node's
// control log, tests and the E10 convergence trajectory.
type Event struct {
	Tick   uint64    `json:"tick"`
	Kind   EventKind `json:"kind"`
	Peer   string    `json:"peer,omitempty"`
	GUID   string    `json:"guid,omitempty"`
	Class  string    `json:"class,omitempty"`
	From   string    `json:"from,omitempty"`
	To     string    `json:"to,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// rollupState is one affinity rollup plus its local receipt tick.
type rollupState struct {
	s    wire.ObjAffinity
	seen uint64
}

// Coordinator is one node's membership in the cluster plane.  Safe for
// concurrent use.
type Coordinator struct {
	cfg Config
	rt  Runtime

	mu      sync.Mutex
	tick    uint64 // local tick == own heartbeat counter
	leaving bool
	peers   map[string]*peerState    // by node id
	dir     map[string]wire.DirEntry // raw merged directory, by key
	intents map[string]*intentState  // by object GUID
	cool    map[string]uint64        // guid -> tick the cooldown expires at
	rollups map[string]*rollupState  // by object GUID
	repl    map[string]*replState    // replica sets, by primary GUID
	applied map[string]uint64        // class -> directory version last applied locally
	pending []Event                  // events this call, delivered after unlock
	rng     *rand.Rand

	// dirSnap is the chain-collapsed, lock-free resolution view consumed
	// on every proxy invocation (Resolve).
	dirSnap atomic.Pointer[map[string]wire.RemoteRef]
	// replSnap is the lock-free read-routing view consumed on every
	// classified-read proxy invocation (ReadTarget); tickAtomic mirrors
	// the tick counter so lease deadlines evaluate without the lock.
	replSnap   atomic.Pointer[map[string]replRoute]
	tickAtomic atomic.Uint64

	running bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds a coordinator (not yet gossiping: call Join and then Start,
// or drive Tick manually).
func New(cfg Config) (*Coordinator, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: empty node id")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: node %s has no cluster endpoint (serve a transport first)", cfg.ID)
	}
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("cluster: nil runtime")
	}
	cfg = cfg.withDefaults()
	// The gossip target shuffle is seeded from the id, so a member's
	// fan-out order is reproducible run to run.
	var seed int64
	for _, b := range []byte(cfg.ID) {
		seed = seed*131 + int64(b)
	}
	seed++
	return &Coordinator{
		cfg:     cfg,
		rt:      cfg.Runtime,
		peers:   make(map[string]*peerState),
		dir:     make(map[string]wire.DirEntry),
		intents: make(map[string]*intentState),
		cool:    make(map[string]uint64),
		rollups: make(map[string]*rollupState),
		repl:    make(map[string]*replState),
		applied: make(map[string]uint64),
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// ID returns the coordinator's node id.
func (c *Coordinator) ID() string { return c.cfg.ID }

// Self returns the coordinator's cluster endpoint.
func (c *Coordinator) Self() string { return c.cfg.Self }

// Join introduces this node to the cluster through the seed endpoints:
// one push-pull exchange per reachable seed.  Seeds pointing at
// ourselves are skipped; an error is returned only when every real seed
// is unreachable.
func (c *Coordinator) Join(seeds []string) error {
	var tried, ok int
	var lastErr error
	for _, ep := range seeds {
		if ep == "" || ep == c.cfg.Self {
			continue
		}
		tried++
		if err := c.gossipTo(ep); err != nil {
			lastErr = err
			continue
		}
		ok++
	}
	if tried > 0 && ok == 0 {
		return fmt.Errorf("cluster %s: no seed reachable: %w", c.cfg.ID, lastErr)
	}
	return nil
}

// Start launches the timed gossip loop (no-op while running).
func (c *Coordinator) Start() {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	c.running = true
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
}

// Stop halts the timed loop, waiting out an in-flight tick.  The
// coordinator remains usable (manual Tick, HandleGossip) and can be
// Started again.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	stop, done := c.stop, c.done
	c.running = false
	c.mu.Unlock()
	close(stop)
	<-done
}

// Leave announces a graceful departure to the current gossip targets and
// stops the timed loop.  Peers drop the node without the suspicion
// ladder.
func (c *Coordinator) Leave() {
	c.Stop()
	c.mu.Lock()
	c.leaving = true
	payload := c.buildPayload()
	targets := c.gossipTargets(len(c.peers)) // tell everyone still alive
	c.mu.Unlock()
	for _, ep := range targets {
		req := &wire.Request{Op: wire.OpGossip, Cluster: payload}
		_, _ = c.rt.Call(ep, req)
	}
}

// Tick runs one coordination round: advance the heartbeat, refresh peer
// liveness, fold in local affinity evidence, evaluate the multi-hop
// rule, execute due (settled, won, local-home) intents, and gossip to
// Fanout peers.  Exported so tests and harnesses can step the plane
// deterministically; the timed loop calls it on every heartbeat.
func (c *Coordinator) Tick() {
	// Local telemetry first — a Runtime call, so outside the lock.
	samples := c.rt.AffinitySamples(maxRollups)

	c.mu.Lock()
	c.tick++
	c.tickAtomic.Store(c.tick)
	for i := range samples {
		samples[i].Home = c.cfg.Self
		c.rollups[samples[i].GUID] = &rollupState{s: samples[i], seen: c.tick}
	}
	c.refreshPeersLocked()
	c.expireLocked()
	if c.cfg.Propose {
		c.proposeMultiHopLocked()
	}
	due := c.dueIntentsLocked()
	direct, promos := c.replicaTickLocked()
	targets := c.gossipTargets(c.cfg.Fanout)
	// Primaries gossip to every replica member each tick — that direct
	// contact is what renews read leases, so it must not depend on the
	// random fan-out happening to pick them.
	for _, ep := range direct {
		if !contains(targets, ep) {
			targets = append(targets, ep)
		}
	}
	c.unlockAndDeliver()
	for _, p := range promos {
		c.rt.Promote(p.guid, p.class, p.selfGUID)
	}

	// Execute won intents (we are the home): the migration goes through
	// the node's ordinary Migrate path, which takes the object's gate
	// and notifies RecordMove on success.
	for _, in := range due {
		_, err := c.rt.MigrateGUID(in.GUID, in.To)
		c.mu.Lock()
		if err != nil {
			c.logLocked(Event{Kind: EventMigrateFail, GUID: in.GUID, Class: in.Class,
				From: in.From, To: in.To, Detail: err.Error()})
			delete(c.intents, in.GUID)
		} else {
			c.logLocked(Event{Kind: EventMigrate, GUID: in.GUID, Class: in.Class,
				From: in.From, To: in.To, Peer: in.Proposer, Detail: in.Reason})
		}
		c.unlockAndDeliver()
	}

	for _, ep := range targets {
		if err := c.gossipTo(ep); err != nil {
			c.mu.Lock()
			c.logLocked(Event{Kind: EventGossipFail, Peer: ep, Detail: err.Error()})
			c.unlockAndDeliver()
		}
	}
}

// gossipTo performs one push-pull exchange with the peer at ep and
// merges the reply.
func (c *Coordinator) gossipTo(ep string) error {
	c.mu.Lock()
	payload := c.buildPayload()
	c.mu.Unlock()
	req := &wire.Request{Op: wire.OpGossip, Cluster: payload}
	t0 := time.Now()
	resp, err := c.rt.Call(ep, req)
	if err != nil {
		return err
	}
	c.rt.ObservePeerRTT(ep, time.Since(t0))
	if resp.Err != "" {
		return fmt.Errorf("gossip to %s: %s", ep, resp.Err)
	}
	c.merge(resp.Cluster)
	return nil
}

// HandleGossip serves one inbound gossip exchange (the node dispatches
// OpGossip here): merge the sender's payload, answer with ours.  It
// never calls out, so concurrent exchanges between two nodes cannot
// deadlock.
func (c *Coordinator) HandleGossip(in *wire.ClusterPayload) *wire.ClusterPayload {
	c.merge(in)
	c.mu.Lock()
	out := c.buildPayload()
	c.mu.Unlock()
	return out
}

// merge folds a received payload into local state and fires resulting
// events and class-placement applications.
func (c *Coordinator) merge(in *wire.ClusterPayload) {
	if in == nil {
		return
	}
	c.mu.Lock()
	c.mergeDigestLocked(in.From)
	for _, d := range in.Peers {
		c.mergeDigestLocked(d)
	}
	applies := c.mergeDirLocked(in.Dir)
	for _, i := range in.Intents {
		c.mergeIntentLocked(i)
	}
	for _, s := range in.Stats {
		if s.Home == c.cfg.Self {
			continue // our own rollups come from telemetry, not echoes
		}
		c.rollups[s.GUID] = &rollupState{s: s, seen: c.tick}
	}
	demoted := c.mergeReplicasLocked(in.Replicas, in.From)
	c.unlockAndDeliver()
	for _, guid := range demoted {
		c.rt.Demote(guid)
	}

	// Apply class placements outside the lock (policy table has its own
	// synchronisation).  The epoch is recorded as applied only on
	// success, so a failed apply is retried on the next gossip of the
	// same entry rather than silently diverging forever.
	for _, a := range applies {
		err := c.rt.ApplyClassPlacement(a.class, a.endpoint)
		c.mu.Lock()
		if err != nil {
			c.logLocked(Event{Kind: EventClassApply, Class: a.class, To: a.endpoint, Detail: err.Error()})
		} else {
			if c.applied[a.class] < a.version {
				c.applied[a.class] = a.version
			}
			c.logLocked(Event{Kind: EventClassApply, Class: a.class, To: a.endpoint})
		}
		c.unlockAndDeliver()
	}
}

// buildPayload assembles this node's gossip contribution.  Caller holds
// c.mu.
func (c *Coordinator) buildPayload() *wire.ClusterPayload {
	p := &wire.ClusterPayload{From: wire.PeerDigest{
		ID: c.cfg.ID, Endpoint: c.cfg.Self, Heartbeat: c.tick, Leaving: c.leaving,
	}}
	for _, ps := range c.peers {
		p.Peers = append(p.Peers, ps.digest)
	}
	sort.Slice(p.Peers, func(i, j int) bool { return p.Peers[i].ID < p.Peers[j].ID })
	for _, e := range c.dir {
		p.Dir = append(p.Dir, e)
	}
	sort.Slice(p.Dir, func(i, j int) bool { return p.Dir[i].Key < p.Dir[j].Key })
	// Intents and rollups are origin-gossiped: a member re-emits only
	// what it proposed (or hosts) itself.  Relaying would let two peers
	// echo each other's copies and refresh lastSeen/seen forever, so
	// the TTLs could never fire and a dead proposer's intent (or a
	// stale rollup) would circulate indefinitely.  The origin re-emits
	// every tick while the evidence persists, so liveness is exactly
	// "the origin still means it".
	for _, st := range c.intents {
		if st.in.Proposer == c.cfg.ID {
			p.Intents = append(p.Intents, st.in)
		}
	}
	sort.Slice(p.Intents, func(i, j int) bool { return p.Intents[i].GUID < p.Intents[j].GUID })
	for _, r := range c.rollups {
		if r.s.Home == c.cfg.Self && c.tick-r.seen < rollupTTL {
			p.Stats = append(p.Stats, r.s)
		}
	}
	sort.Slice(p.Stats, func(i, j int) bool { return p.Stats[i].GUID < p.Stats[j].GUID })
	// Replica sets relay like directory entries (versioned state, not
	// origin-gossiped evidence): pure callers need the routes too, and
	// the merge order makes echoes harmless.  Tombstones travel so drops
	// converge.
	for _, st := range c.repl {
		p.Replicas = append(p.Replicas, st.set)
	}
	sort.Slice(p.Replicas, func(i, j int) bool { return p.Replicas[i].GUID < p.Replicas[j].GUID })
	return p
}

// contains reports whether eps holds ep (small slices only).
func contains(eps []string, ep string) bool {
	for _, e := range eps {
		if e == ep {
			return true
		}
	}
	return false
}

// expireLocked drops intents and rollups that have not been re-asserted
// within their TTLs.  Caller holds c.mu.
func (c *Coordinator) expireLocked() {
	for g, st := range c.intents {
		if c.tick-st.lastSeen >= intentTTL {
			delete(c.intents, g)
		}
	}
	for g, r := range c.rollups {
		if c.tick-r.seen >= rollupTTL {
			delete(c.rollups, g)
		}
	}
	for g, until := range c.cool {
		if c.tick >= until {
			delete(c.cool, g)
		}
	}
}

// proposeMultiHopLocked evaluates the gossiped affinity evidence: an
// object (wherever it lives) whose dominant caller holds at least
// threshold of a rollup window's calls, and is not its home, draws a
// migration intent from this node — the multi-hop case when neither the
// home nor the dominant caller is us.  Caller holds c.mu.
func (c *Coordinator) proposeMultiHopLocked() {
	for _, r := range c.rollups {
		s := r.s
		if s.Calls < minCalls {
			continue
		}
		var bestEp string
		var best uint64
		for _, ec := range s.Callers {
			if ec.Calls > best || (ec.Calls == best && ec.Endpoint < bestEp) {
				bestEp, best = ec.Endpoint, ec.Calls
			}
		}
		if bestEp == "" || bestEp == s.Home {
			continue
		}
		if float64(best)/float64(s.Calls) < threshold {
			continue
		}
		if home, ok := c.resolveLocked(s.GUID); ok && home.Endpoint != s.Home {
			continue // rollup is stale: the object has already moved
		}
		if _, cooling := c.cool[s.GUID]; cooling {
			continue
		}
		in := wire.Intent{
			GUID: s.GUID, Class: s.Class, From: s.Home, To: bestEp,
			Proposer: c.cfg.ID, Priority: int64(best),
			Reason: fmt.Sprintf("rollup: %d/%d calls from %s", best, s.Calls, bestEp),
		}
		if c.mergeIntentLocked(in) {
			c.logLocked(Event{Kind: EventPropose, GUID: in.GUID, Class: in.Class,
				From: in.From, To: in.To, Peer: c.cfg.ID, Detail: in.Reason})
		}
	}
}

// unlockAndDeliver releases c.mu and then hands the events logged while
// it was held to Runtime.RecordEvent and OnEvent, so neither runs under
// the coordinator lock.  Caller holds c.mu.
func (c *Coordinator) unlockAndDeliver() {
	fired := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, e := range fired {
		c.rt.RecordEvent(e)
		if c.cfg.OnEvent != nil {
			c.cfg.OnEvent(e)
		}
	}
}

// logLocked queues an event for delivery.  Caller holds c.mu.
func (c *Coordinator) logLocked(e Event) {
	e.Tick = c.tick
	c.pending = append(c.pending, e)
}

// isClassKey reports whether a directory key names a class placement.
func isClassKey(key string) (string, bool) {
	return strings.CutPrefix(key, "class:")
}
