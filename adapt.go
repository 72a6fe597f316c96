package rafda

import (
	"fmt"
	"time"

	"rafda/internal/adapt"
	"rafda/internal/policy"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// AdaptConfig tunes a node's adaptive placement engine (zero fields take
// the engine defaults; see docs/ADAPTIVE.md for the loop and its thrash
// guards).
type AdaptConfig struct {
	// Window is the telemetry sampling and rule-evaluation period.
	Window time.Duration
	// Threshold is the dominant-endpoint call share, in (0,1], a rule
	// needs before proposing an action.
	Threshold float64
	// MinCalls is the minimum per-window activity below which no
	// proposal is made.
	MinCalls int
	// Confirm is how many consecutive windows a proposal must recur
	// before it executes (hysteresis).
	Confirm int
	// Budget caps executed migrations per object (and placement flips
	// per class) within the trailing BudgetWindows windows.
	Budget int
	// BudgetWindows is the budget horizon, in windows.
	BudgetWindows int
	// CostBased swaps the count-based object rule for the cost-based
	// one: migrate only when the traffic saved (remote calls × peer RTT
	// EWMA) outweighs shipping the object's state.
	CostBased bool
	// NsPerByte prices shipped state for the cost comparison (0 takes
	// the engine default, ~100 MB/s).
	NsPerByte float64
	// MaxWriteShare is the write fraction above which an object is not
	// considered read-mostly and the replication rule abstains, in
	// (0,1] (0 takes the engine default, one write in ten calls).
	MaxWriteShare float64
	// ReplicaFanout caps how many caller endpoints a replication
	// proposal targets — the rule's top-k (0 takes the engine default).
	ReplicaFanout int
	// OnDecision, when set, observes every decision as it is made.
	OnDecision func(AdaptDecision)
}

// AdaptDecision is one engine outcome, for logs and dashboards.
type AdaptDecision struct {
	At       time.Time
	Window   int
	Rule     string
	Action   string // "migrate", "place-class" or "replicate"
	GUID     string
	Class    string
	Endpoint string // destination; "" means local placement
	Reason   string
	Executed bool
	// Delegated reports the decision became a placement intent for the
	// cluster to reconcile and execute (docs/CLUSTER.md) instead of
	// running here.
	Delegated bool
	Err       string
}

// Adapter is a running adaptive placement engine attached to a node.
type Adapter struct {
	eng *adapt.Engine
}

// EnableTelemetry switches on the node's call-affinity metrics plane
// without starting an adapter (idempotent).  StartAdapter implies it.
func (n *Node) EnableTelemetry() { n.n.EnableTelemetry() }

// StartAdapter enables telemetry and starts the adaptive placement
// engine: from here on the node watches its own call affinity and
// redraws distribution boundaries — migrating hot objects toward their
// dominant callers and re-pointing class placements — through the same
// Migrate/PlaceClass mechanisms, with no manual calls.  Stop the
// returned Adapter to freeze placement again; Close stops it too.
func (n *Node) StartAdapter(cfg AdaptConfig) *Adapter {
	a := n.NewAdapter(cfg)
	a.eng.Start()
	return a
}

// NewAdapter builds the node's adapter without starting its periodic
// loop; drive it with Tick for deterministic harnesses, or call
// (*Adapter).eng via StartAdapter for the timed loop.
func (n *Node) NewAdapter(cfg AdaptConfig) *Adapter {
	rec := n.n.EnableTelemetry()
	in := n.n
	act := adapt.Actions{
		MigrateObject: func(obj *vm.Object, endpoint string) error {
			return in.Migrate(vm.RefV(obj), endpoint)
		},
		PlaceClass: func(class, endpoint string, ifVersion uint64) error {
			pl := policy.LocalPlacement
			if endpoint != "" {
				var err error
				pl, err = policy.RemoteAt(endpoint)
				if err != nil {
					return err
				}
			}
			if !in.Policy().SetClassIf(class, pl, ifVersion) {
				return fmt.Errorf("policy re-configured concurrently; decision dropped")
			}
			// An executed flip is a new policy epoch: share it through
			// the cluster directory so every member converges (no-op
			// outside a cluster).
			in.AnnounceClassPlacement(class, endpoint)
			return nil
		},
		PolicyVersion: func() uint64 { return in.Policy().Version() },
		ClassPlacement: func(class string) string {
			pl, _ := in.Policy().For(class)
			if pl.Kind == policy.Remote {
				return pl.Endpoint
			}
			return ""
		},
		IsLocalObject: in.IsMigratable,
		ReplicateObject: func(obj *vm.Object, endpoints []string) error {
			return in.Replicate(vm.RefV(obj), endpoints...)
		},
		IsReplicated:  in.IsReplicated,
		SelfEndpoints: in.Endpoints,
		StateBytes:    in.StateBytes,
		// Cluster delegation: a confirmed migration becomes a placement
		// intent the cluster reconciles (tie-break by priority, then
		// node id) and the object's home executes.  Checked per call, so
		// an adapter built before JoinCluster delegates from the moment
		// the node joins; with no cluster attached the engine acts alone.
		SubmitIntent: func(p adapt.Proposal) (bool, string) {
			co := in.Cluster()
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
		},
	}
	ecfg := adapt.Config{
		Window:        cfg.Window,
		Threshold:     cfg.Threshold,
		MinCalls:      uint64(max(cfg.MinCalls, 0)),
		Confirm:       cfg.Confirm,
		Budget:        cfg.Budget,
		BudgetWindows: cfg.BudgetWindows,
		CostBased:     cfg.CostBased,
		NsPerByte:     cfg.NsPerByte,
		MaxWriteShare: cfg.MaxWriteShare,
		ReplicaFanout: cfg.ReplicaFanout,
	}
	// Every decision lands in the node's flight recorder as an adapt
	// span (a no-op under NoTrace), interleaving placement decisions
	// with the call traffic that triggered them; a user callback chains
	// after the recording.
	ecfg.OnDecision = func(d adapt.Decision) {
		in.RecordAdaptDecision(d.Rule, d.Kind.String(), d.GUID, d.Class, d.Endpoint,
			d.Reason, d.Executed, d.Delegated, d.Err)
		if cfg.OnDecision != nil {
			cfg.OnDecision(fromEngineDecision(d))
		}
	}
	a := &Adapter{eng: adapt.New(rec, act, ecfg)}
	n.attachAdapter(a)
	return a
}

// Start launches the adapter's periodic loop (no-op if running).
// Start after Stop resumes it; window state, budgets and the decision
// log carry over.
func (a *Adapter) Start() { a.eng.Start() }

// Stop halts the decision loop, waiting out an in-flight evaluation;
// telemetry keeps recording and Start resumes the loop.
func (a *Adapter) Stop() { a.eng.Stop() }

// Tick runs one evaluation immediately — the deterministic alternative
// to the timed loop, used by tests and the E9 harness.
func (a *Adapter) Tick() { a.eng.Tick() }

// Decisions returns the adapter's decision log.
func (a *Adapter) Decisions() []AdaptDecision {
	ds := a.eng.Decisions()
	out := make([]AdaptDecision, len(ds))
	for i, d := range ds {
		out[i] = fromEngineDecision(d)
	}
	return out
}

// fromEngineDecision converts the internal decision record to the
// public one.
func fromEngineDecision(d adapt.Decision) AdaptDecision {
	return AdaptDecision{
		At:        d.At,
		Window:    d.Window,
		Rule:      d.Rule,
		Action:    d.Kind.String(),
		GUID:      d.GUID,
		Class:     d.Class,
		Endpoint:  d.Endpoint,
		Reason:    d.Reason,
		Executed:  d.Executed,
		Delegated: d.Delegated,
		Err:       d.Err,
	}
}
