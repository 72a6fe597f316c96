package rafda

import "rafda/internal/adapt"

// AdaptConfig tunes a node's adaptive placement engine (zero fields take
// the engine defaults; see docs/ADAPTIVE.md for the loop, its thrash
// guards and the fixed constants behind them).
type AdaptConfig = adapt.Config

// AdaptDecision is one engine outcome, for logs and dashboards.  Kind
// prints as "migrate", "place-class" or "replicate"; Delegated reports
// the decision became a placement intent for the cluster to reconcile
// and execute (docs/CLUSTER.md) instead of running here.
type AdaptDecision = adapt.Decision

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
// loop; drive it with Tick for deterministic harnesses, or Start it for
// the timed loop.
func (n *Node) NewAdapter(cfg AdaptConfig) *Adapter {
	// Every decision lands in the node's control log (Node.Events)
	// before cfg.OnDecision sees it.
	a := &Adapter{eng: adapt.New(n.n.EnableTelemetry(), n.n, cfg)}
	n.attachAdapter(a)
	return a
}

// Start launches the adapter's periodic loop (no-op if running).
// Start after Stop resumes it; window state and budgets carry over.
func (a *Adapter) Start() { a.eng.Start() }

// Stop halts the decision loop, waiting out an in-flight evaluation;
// telemetry keeps recording and Start resumes the loop.
func (a *Adapter) Stop() { a.eng.Stop() }

// Tick runs one evaluation immediately — the deterministic alternative
// to the timed loop, used by tests and the E9 harness.
func (a *Adapter) Tick() { a.eng.Tick() }
