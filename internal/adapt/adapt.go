// Package adapt is the adaptive placement engine: the closed loop the
// paper's §4 leaves as future work ("the distributed program can adapt
// to its environment by dynamically altering its distribution
// boundaries").  It periodically reads the telemetry plane
// (internal/telemetry), evaluates pluggable placement rules over the
// last window's activity, and executes the surviving decisions through
// the node's existing migration and re-policy mechanisms — so the
// boundaries redraw themselves, with no manual Migrate or PlaceClass
// call.
//
// The engine is deliberately conservative.  A decision executes only
// after it survives three thrash guards:
//
//   - hysteresis: a rule must propose the same action for Confirm
//     consecutive windows before it runs;
//   - a per-target migration budget: at most Budget executed migrations
//     per object (and flips per class) within the last 64 windows —
//     the loop can move an object, but never ping-pong it;
//   - versioned re-policy: class flips apply through
//     policy.Table.SetClassIf against the version read at window start,
//     so the engine never overwrites a concurrent operator re-policy.
//
// The engine runs above the node's lock hierarchy: it reads counters
// through its own telemetry.Window cursor (atomic loads behind the
// cursor's private mutex, no node lock) and executes
// decisions through the same public paths a human operator would use,
// which acquire the object gate / policy lock themselves
// (docs/ADAPTIVE.md, docs/CONCURRENCY.md).
package adapt

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rafda/internal/telemetry"
	"rafda/internal/vm"
)

// DecisionKind enumerates the actions the engine can take.
type DecisionKind uint8

// Decision kinds.
const (
	// KindMigrate moves one live object to the endpoint it has affinity
	// with.
	KindMigrate DecisionKind = iota + 1
	// KindPlaceClass re-points the policy table entry for a class, so
	// future creations and discoveries land at the new placement.
	KindPlaceClass
	// KindReplicate installs read replicas of one read-mostly object at
	// its hottest caller endpoints; this node stays the lease-holding
	// primary and keeps serialising writes (docs/REPLICATION.md).
	KindReplicate
)

func (k DecisionKind) String() string {
	switch k {
	case KindMigrate:
		return "migrate"
	case KindPlaceClass:
		return "place-class"
	case KindReplicate:
		return "replicate"
	default:
		return fmt.Sprintf("DecisionKind(%d)", uint8(k))
	}
}

// Proposal is one action a rule wants taken this window.
type Proposal struct {
	Kind     DecisionKind
	Obj      *vm.Object // migration target handle (KindMigrate)
	GUID     string     // object identity (KindMigrate)
	Class    string
	Endpoint string // destination; "" means local (KindPlaceClass only)
	// Endpoints lists the replica target endpoints of a KindReplicate
	// proposal, sorted.  Endpoint carries their canonical join so the
	// hysteresis streak restarts when the target set changes.
	Endpoints []string
	Reason    string
	// Priority is the proposal's evidence strength (typically the
	// dominant caller's window call count).  When the node is in a
	// cluster, confirmed migrations are delegated as placement intents
	// and Priority is what conflicting intents reconcile by.
	Priority int64
	// Rule is filled in by the engine with the proposing rule's name.
	Rule string
}

// key identifies a proposal for hysteresis and budget accounting.
func (p Proposal) key() string {
	switch p.Kind {
	case KindMigrate:
		return "obj:" + p.GUID
	case KindReplicate:
		return "repl:" + p.GUID
	default:
		return "class:" + p.Class
	}
}

// Decision is one engine outcome: a proposal that survived hysteresis,
// recorded whether or not it executed.
type Decision struct {
	Window   int          `json:"window"` // evaluation tick the decision was made in
	Rule     string       `json:"rule"`
	Kind     DecisionKind `json:"kind"`
	GUID     string       `json:"guid,omitempty"`
	Class    string       `json:"class,omitempty"`
	Endpoint string       `json:"endpoint,omitempty"`
	Reason   string       `json:"reason,omitempty"`
	// Executed reports the action ran (and, for migrations, succeeded).
	Executed bool `json:"executed,omitempty"`
	// Delegated reports the decision was handed to the cluster
	// coordination plane as a placement intent instead of executed
	// directly: the cluster reconciles conflicting intents and the
	// object's home executes the winner (docs/CLUSTER.md).
	Delegated bool `json:"delegated,omitempty"`
	// Err says why a decision that neither executed nor was delegated
	// was held: a thrash guard suppressed it or its action failed.
	Err string `json:"err,omitempty"`
}

// Outcome names what became of the decision: "executed", "delegated"
// (handed to the cluster as an intent), "held: <why>" when a thrash
// guard or a failed action stopped it, or "held".
func (d Decision) Outcome() string {
	switch {
	case d.Executed:
		return "executed"
	case d.Delegated:
		return "delegated"
	case d.Err != "":
		return "held: " + d.Err
	default:
		return "held"
	}
}

// MarshalText encodes the kind by name, so a logged decision reads
// "migrate" in JSON rather than an ordinal.
func (k DecisionKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// ObjWindow is one object's activity during the evaluated window — the
// deltas from the engine's telemetry cursor — plus what the engine
// derives from the node.
type ObjWindow struct {
	telemetry.ObjSample
	// Migratable reports whether the object is currently a live local
	// transformed instance (statics singletons and already-morphed
	// proxies are not).  Rules must not propose migrating
	// non-migratable objects — the engine could only suppress the
	// decision, forever, as log noise.
	Migratable bool
	// Replicated reports whether the object already has a live replica
	// set with this node as primary; the replication rule proposes only
	// for unreplicated objects (growing or shrinking an existing set is
	// the cluster plane's lease machinery's job, not the rule's).
	Replicated bool
}

// ClassWindow is one class's activity during the evaluated window.
type ClassWindow struct {
	telemetry.ClassSample
	// PlacedAt is the class's current policy placement endpoint (""
	// when placed locally), read at window start.
	PlacedAt string
}

// View is everything a rule sees for one evaluation.
type View struct {
	Objects []ObjWindow
	Classes []ClassWindow
	// Self reports the endpoints this node serves (rules must not
	// propose moving anything to ourselves-as-remote).
	Self map[string]bool
}

// Rule proposes placement actions from one window of telemetry.  Rules
// are pure: hysteresis, budget and execution belong to the engine.
type Rule interface {
	Name() string
	Evaluate(v *View) []Proposal
}

// Node is the node the engine observes and acts on; *node.Node is the
// production implementation.  Every action runs through the same path
// an operator uses: Migrate acquires the object's gate for the
// snapshot→ship→morph sequence, PlaceClassIf goes through the versioned
// policy table.
type Node interface {
	// Migrate moves the object behind ref to endpoint.
	Migrate(ref vm.Value, endpoint string) error
	// Replicate installs read replicas of the object behind ref at the
	// given endpoints, leaving this node as the lease-holding primary.
	// Unlike migration, replication is not delegated through the intent
	// plane: only the primary can install replicas of its own object, so
	// there is no cross-node conflict to reconcile.
	Replicate(ref vm.Value, endpoints ...string) error
	// IsMigratable reports whether obj is currently a live local
	// transformed instance (not a proxy, not a statics singleton) — the
	// only things migration and replication can act on.
	IsMigratable(obj *vm.Object) bool
	// IsReplicated reports whether obj already belongs to a replica set.
	IsReplicated(obj *vm.Object) bool
	// Endpoints returns the endpoints this node serves.
	Endpoints() []string
	// PlaceClassIf re-points class ("" endpoint = local) iff the policy
	// table version still equals ifVersion.
	PlaceClassIf(class, endpoint string, ifVersion uint64) error
	// PolicyVersion returns the policy table version.
	PolicyVersion() uint64
	// ClassPlacement returns the endpoint class is currently placed at
	// ("" for local).
	ClassPlacement(class string) string
	// SubmitIntent delegates a confirmed migration to the cluster
	// coordination plane instead of executing it here: the cluster
	// reconciles conflicting intents cluster-wide and the object's home
	// executes the winner.  It returns whether the intent was accepted
	// (false with an empty reason when no cluster is attached — the
	// engine then executes directly — or with a reason when the cluster
	// refused it).
	SubmitIntent(p Proposal) (accepted bool, reason string)
	// RecordDecision appends one decision to the node's control log.
	// Called after the engine lock is released and before
	// Config.OnDecision, so it may use the engine's own API.
	RecordDecision(d Decision)
}

// Config tunes the engine.  Zero fields take the defaults.
type Config struct {
	// Window is the sampling and evaluation period.
	Window time.Duration
	// Threshold is the dominant-endpoint share (over a window's calls)
	// a rule needs before proposing, in (0,1].
	Threshold float64
	// MinCalls is the minimum window activity (calls, or creates for
	// class rules) below which no proposal is made.
	MinCalls uint64
	// Confirm is how many consecutive windows a proposal must recur
	// before it executes.
	Confirm int
	// Budget caps executed migrations per object (and flips per class)
	// within the trailing budgetWindows (64) windows.
	Budget int
	// OnDecision, when set, observes every decision as it is logged.
	OnDecision func(Decision)
}

// Defaults.
const (
	DefaultWindow    = 250 * time.Millisecond
	DefaultThreshold = 0.6
	DefaultMinCalls  = 16
	DefaultConfirm   = 2
	DefaultBudget    = 2
)

// Fixed tuning: knobs no deployment has needed to turn.
const (
	// budgetWindows is the budget horizon, in windows.
	budgetWindows = 64
	// maxWriteShare admits at most one classified write per ten
	// classified calls before replication stops paying: every write fans
	// out to all replicas synchronously, so write-heavy objects lose.
	maxWriteShare = 0.1
	// replicaFanout replicates to at most the top two caller endpoints —
	// enough for the three-node read-scaling experiments without
	// inflating every write's fan-out.
	replicaFanout = 2
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		c.Threshold = DefaultThreshold
	}
	if c.MinCalls == 0 {
		c.MinCalls = DefaultMinCalls
	}
	if c.Confirm <= 0 {
		c.Confirm = DefaultConfirm
	}
	if c.Budget <= 0 {
		c.Budget = DefaultBudget
	}
	return c
}

type confirmState struct {
	endpoint string // proposed destination being confirmed
	streak   int
	lastTick int
}

// Engine evaluates rules over telemetry windows and executes surviving
// decisions.  Safe for concurrent use; evaluation is serialised.
type Engine struct {
	cfg Config
	win *telemetry.Window // the engine's own cursor: one Next per tick
	// node is what the engine observes and acts on; rules is the
	// built-in rule set for cfg.
	node  Node
	rules []Rule

	mu      sync.Mutex
	tick    int
	pending []Decision // this tick's decisions, for post-unlock callbacks
	confirm map[string]confirmState
	spent   map[string][]int // proposal key -> ticks of executed actions

	// running/stop/done carry the periodic loop's lifecycle (guarded by
	// mu); Start and Stop form a restartable pair.
	running bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds an engine over a node and its telemetry recorder.
func New(rec *telemetry.Recorder, node Node, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:     cfg,
		win:     rec.NewWindow(),
		node:    node,
		rules:   defaultRules(cfg),
		confirm: make(map[string]confirmState),
		spent:   make(map[string][]int),
	}
}

// Start launches the periodic decision loop (no-op while one is
// running).  Start after Stop resumes the loop — the engine's window
// state and budgets carry over.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.stop, e.done = stop, done
	e.running = true
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(e.cfg.Window)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the loop and waits for any in-flight tick (no-op when not
// running).  The engine can be Started again afterwards.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return
	}
	stop, done := e.stop, e.done
	e.running = false
	e.mu.Unlock()
	close(stop)
	<-done
}

// Tick runs one evaluation: cursor → window deltas → rules →
// hysteresis → budget → execute.  Exported so tests and harnesses can
// step the loop deterministically.  Each decision reaches the node's
// RecordDecision and then OnDecision after the engine lock is released,
// so either may freely use the engine's own API (even Tick or Stop).
func (e *Engine) Tick() {
	for _, d := range e.tickLocked() {
		e.node.RecordDecision(d)
		if e.cfg.OnDecision != nil {
			e.cfg.OnDecision(d)
		}
	}
}

// tickLocked is one evaluation under the engine lock; it returns the
// decisions made this tick for post-unlock callback delivery.
func (e *Engine) tickLocked() []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick++
	polVersion := e.node.PolicyVersion()
	view := e.buildView()

	var proposals []Proposal
	for _, r := range e.rules {
		for _, p := range r.Evaluate(view) {
			p := p
			p.Rule = r.Name()
			proposals = append(proposals, p)
		}
	}

	// Hysteresis: a proposal (same target, same destination) must recur
	// for Confirm consecutive ticks.  A changed destination or a missed
	// tick restarts the streak.
	live := make(map[string]bool, len(proposals))
	for _, p := range proposals {
		k := p.key()
		live[k] = true
		st := e.confirm[k]
		if st.endpoint == p.Endpoint && st.lastTick == e.tick-1 {
			st.streak++
		} else {
			st = confirmState{endpoint: p.Endpoint, streak: 1}
		}
		st.lastTick = e.tick
		e.confirm[k] = st
		if st.streak < e.cfg.Confirm {
			continue
		}
		e.decide(p, &polVersion)
	}
	for k, st := range e.confirm {
		if !live[k] && st.lastTick < e.tick {
			delete(e.confirm, k)
		}
	}
	fired := e.pending
	e.pending = nil
	return fired
}

// decide applies the budget guard and executes one confirmed proposal,
// logging the outcome.  Whatever the outcome, the target's confirmation
// streak restarts, so a recurring proposal is logged at most once per
// Confirm windows rather than every tick.  polVersion is the engine's
// view of the policy-table version: an executed flip advances it, so a
// second flip confirming in the same tick is not vetoed by the first
// (only a genuinely concurrent operator re-policy is).  Caller holds
// e.mu.
func (e *Engine) decide(p Proposal, polVersion *uint64) {
	defer delete(e.confirm, p.key())
	d := Decision{
		Window:   e.tick,
		Rule:     p.Rule,
		Kind:     p.Kind,
		GUID:     p.GUID,
		Class:    p.Class,
		Endpoint: p.Endpoint,
		Reason:   p.Reason,
	}

	k := p.key()
	horizon := e.tick - budgetWindows
	spent := e.spent[k][:0]
	for _, t := range e.spent[k] {
		if t > horizon {
			spent = append(spent, t)
		}
	}
	e.spent[k] = spent
	if len(spent) >= e.cfg.Budget {
		d.Err = fmt.Sprintf("suppressed: budget %d/%d spent in the last %d windows",
			len(spent), e.cfg.Budget, budgetWindows)
	} else if delegated, err := e.act(p, polVersion); err != nil {
		d.Err = err.Error()
	} else if delegated {
		d.Delegated = true
	} else {
		d.Executed = true
		e.spent[k] = append(e.spent[k], e.tick)
	}
	e.pending = append(e.pending, d)
}

// act executes one confirmed, in-budget proposal through the node;
// delegated reports that a migration became a cluster intent instead.
// Caller holds e.mu.
func (e *Engine) act(p Proposal, polVersion *uint64) (delegated bool, err error) {
	switch p.Kind {
	case KindMigrate, KindReplicate:
		// The object must still be a live local instance: a concurrent
		// migration turns the proposal stale.
		if !e.node.IsMigratable(p.Obj) {
			return false, errors.New("suppressed: object is no longer a live local instance")
		}
		if p.Kind == KindReplicate {
			// Replication never delegates: only the primary can install
			// replicas of its own object, so the intent plane has nothing
			// to reconcile.
			return false, e.node.Replicate(vm.RefV(p.Obj), p.Endpoints...)
		}
		// Cluster mode: don't act, propose.  The decision becomes a
		// placement intent the cluster reconciles against every other
		// member's intents; the winner is executed by the object's home
		// (possibly us) through the coordination plane, which carries its
		// own ping-pong guard — so a delegated decision spends no local
		// budget.  A refusal (cooldown, outweighed, already satisfied) is
		// logged and nothing runs; with no cluster attached SubmitIntent
		// reports false with an empty reason and the engine acts alone.
		if ok, why := e.node.SubmitIntent(p); ok {
			return true, nil
		} else if why != "" {
			return false, errors.New("intent refused: " + why)
		}
		return false, e.node.Migrate(vm.RefV(p.Obj), p.Endpoint)
	case KindPlaceClass:
		if err := e.node.PlaceClassIf(p.Class, p.Endpoint, *polVersion); err != nil {
			return false, err
		}
		*polVersion = e.node.PolicyVersion()
		return false, nil
	default:
		return false, fmt.Errorf("unknown decision kind %v", p.Kind)
	}
}

// buildView advances the engine's telemetry cursor and annotates the
// window with what the node knows about each object and class.  Caller
// holds e.mu.
func (e *Engine) buildView() *View {
	v := &View{Self: map[string]bool{}}
	for _, ep := range e.node.Endpoints() {
		v.Self[ep] = true
	}
	objs, classes := e.win.Next()
	for _, s := range objs {
		v.Objects = append(v.Objects, ObjWindow{ObjSample: s,
			Migratable: e.node.IsMigratable(s.Obj), Replicated: e.node.IsReplicated(s.Obj)})
	}
	for _, s := range classes {
		v.Classes = append(v.Classes, ClassWindow{ClassSample: s, PlacedAt: e.node.ClassPlacement(s.Class)})
	}
	return v
}
