package rafda

import (
	"time"

	"rafda/internal/cluster"
	"rafda/internal/wire"
)

// ClusterConfig tunes a node's membership in the cluster coordination
// plane (docs/CLUSTER.md).  Zero fields take the plane's defaults; the
// liveness ladder, settle and cooldown windows and the multi-hop rule's
// threshold are the plane's fixed defaults, and every member follows
// gossiped class placements.
type ClusterConfig struct {
	// Seeds are existing members' endpoints to join through (empty for
	// the first node).
	Seeds []string
	// Heartbeat is the gossip period of the timed loop.
	Heartbeat time.Duration
	// Fanout is how many peers each round gossips to.
	Fanout int
	// Propose enables the multi-hop rule on this member: evaluate
	// gossiped affinity rollups and propose migrations anywhere in the
	// cluster (B→C proposed by A).
	Propose bool
	// OnEvent observes every membership/directory/intent event, after
	// it lands in the node's control log (Node.Events).
	OnEvent func(ClusterEvent)
}

// ClusterEvent is one observable coordination occurrence.
type ClusterEvent = cluster.Event

// ClusterPeer is one row of the membership table.
type ClusterPeer = cluster.PeerInfo

// Cluster is a node's handle on the coordination plane.
type Cluster struct {
	co *cluster.Coordinator
}

// JoinCluster joins this node to the cluster reachable through
// cfg.Seeds (or founds a new one when none are given).  The node must
// be serving at least one transport — its endpoint is how peers gossip
// to it.  Joining enables telemetry, OpGossip dispatch and
// directory-first proxy resolution; placement decisions made by this
// node's adapter are from now on delegated to the cluster as intents
// (propose/reconcile/act) instead of executed unilaterally.
//
// The returned handle is not yet gossiping: call Start for the timed
// loop, or Tick from a deterministic harness.  Close stops it.
func (n *Node) JoinCluster(cfg ClusterConfig) (*Cluster, error) {
	co, err := n.n.StartCluster(cluster.Config{
		Heartbeat: cfg.Heartbeat,
		Fanout:    cfg.Fanout,
		Propose:   cfg.Propose,
		OnEvent:   cfg.OnEvent,
	}, cfg.Seeds)
	if err != nil {
		return nil, err
	}
	c := &Cluster{co: co}
	n.attachCluster(c)
	return c, nil
}

// Start launches the timed gossip loop (no-op while running).
func (c *Cluster) Start() { c.co.Start() }

// Stop halts the timed loop, waiting out an in-flight round; the node
// stays a member (gossip from peers is still served) and Start resumes.
func (c *Cluster) Stop() { c.co.Stop() }

// Tick runs one coordination round immediately — the deterministic
// alternative to the timed loop, used by tests and the E10 harness.
func (c *Cluster) Tick() { c.co.Tick() }

// Leave announces a graceful departure and stops the loop.
func (c *Cluster) Leave() { c.co.Leave() }

// Peers returns the membership table, sorted by id.
func (c *Cluster) Peers() []ClusterPeer { return c.co.Peers() }

// ProposeMigration submits a placement intent to the cluster: move the
// object exported under guid to the node serving endpoint.  The intent
// reconciles against every other member's intents (highest priority
// wins, ties break on proposer id) and, if it stays the winner through
// the settle window, the object's home executes it.  The returned
// reason explains a refusal ("" when accepted).  This is the
// operator-facing form of what the adaptive engines do automatically.
func (c *Cluster) ProposeMigration(guid, endpoint string, priority int64, reason string) (accepted bool, why string) {
	return c.co.Submit(wire.Intent{GUID: guid, To: endpoint, Priority: priority, Reason: reason})
}

// ResolveObject returns the placement directory's (chain-collapsed)
// view of where the object behind guid lives: its current GUID and home
// endpoint.
func (c *Cluster) ResolveObject(guid string) (currentGUID, endpoint string, ok bool) {
	ref, ok := c.co.Resolve(guid)
	if !ok {
		return "", "", false
	}
	return ref.GUID, ref.Endpoint, true
}
