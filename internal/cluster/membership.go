package cluster

import (
	"sort"

	"rafda/internal/wire"
)

// PeerHealth is a peer's liveness classification.
type PeerHealth uint8

// Liveness states: a peer whose heartbeat keeps advancing is alive;
// suspectAfter ticks without an advance make it suspect (still gossiped
// to, so a partitioned peer recovers), deadAfter ticks make it dead
// (dropped from gossip targets; its intents age out by TTL).
const (
	Alive PeerHealth = iota
	Suspect
	Dead
)

func (h PeerHealth) String() string {
	switch h {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// peerState is one peer's tracked liveness.
type peerState struct {
	digest      wire.PeerDigest
	lastAdvance uint64 // local tick the heartbeat last advanced
	health      PeerHealth
}

// PeerInfo is the public peer-table row.
type PeerInfo struct {
	ID        string `json:"id"`
	Endpoint  string `json:"endpoint"`
	Heartbeat uint64 `json:"heartbeat"`
	Health    string `json:"health"` // alive | suspect | dead
}

// mergeDigestLocked folds one membership digest into the peer table.
// Caller holds c.mu.
func (c *Coordinator) mergeDigestLocked(d wire.PeerDigest) {
	if d.ID == "" || d.ID == c.cfg.ID {
		return
	}
	ps, known := c.peers[d.ID]
	if !known {
		ps = &peerState{digest: d, lastAdvance: c.tick}
		if d.Leaving {
			ps.health = Dead
		}
		c.peers[d.ID] = ps
		kind := "peer-join"
		if d.Leaving {
			kind = "peer-leave"
		}
		c.logLocked(Event{Kind: kind, Peer: d.ID, From: d.Endpoint})
		return
	}
	if d.Leaving && ps.health != Dead {
		ps.digest = d
		ps.health = Dead
		c.logLocked(Event{Kind: "peer-leave", Peer: d.ID, From: d.Endpoint})
		return
	}
	if d.Heartbeat > ps.digest.Heartbeat && !ps.digest.Leaving {
		ps.digest = d
		ps.lastAdvance = c.tick
		if ps.health != Alive {
			ps.health = Alive
			c.logLocked(Event{Kind: "peer-join", Peer: d.ID, From: d.Endpoint,
				Detail: "recovered"})
		}
	}
}

// refreshPeersLocked walks the suspicion ladder: peers whose heartbeat
// stopped advancing turn suspect, then dead.  Caller holds c.mu.
func (c *Coordinator) refreshPeersLocked() {
	for id, ps := range c.peers {
		if ps.health == Dead {
			continue
		}
		idle := c.tick - ps.lastAdvance
		switch {
		case idle >= deadAfter:
			ps.health = Dead
			c.logLocked(Event{Kind: "peer-dead", Peer: id, From: ps.digest.Endpoint})
		case idle >= suspectAfter:
			if ps.health != Suspect {
				ps.health = Suspect
				c.logLocked(Event{Kind: "peer-suspect", Peer: id, From: ps.digest.Endpoint})
			}
		}
	}
}

// gossipTargets picks up to n live (alive or suspect) peer endpoints,
// shuffled by the seeded generator.  Caller holds c.mu.
func (c *Coordinator) gossipTargets(n int) []string {
	var eps []string
	for _, ps := range c.peers {
		if ps.health != Dead {
			eps = append(eps, ps.digest.Endpoint)
		}
	}
	sort.Strings(eps)
	c.rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
	if len(eps) > n {
		eps = eps[:n]
	}
	return eps
}

// Peers returns the public peer table, sorted by id.
func (c *Coordinator) Peers() []PeerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerInfo, 0, len(c.peers))
	for id, ps := range c.peers {
		out = append(out, PeerInfo{
			ID:        id,
			Endpoint:  ps.digest.Endpoint,
			Heartbeat: ps.digest.Heartbeat,
			Health:    ps.health.String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
