package cluster

import (
	"fmt"

	"rafda/internal/wire"
)

// Placement intents are how the cluster decides *before* acting.  Any
// member may propose moving any object (its own adapt engine delegating
// a local decision, or the multi-hop rule acting on gossiped evidence);
// conflicting intents for one object reconcile to a single deterministic
// winner everywhere, the winner must stay stable for settleTicks, and
// only the object's home executes it.  The result: engines that used to
// act unilaterally — and could ping-pong an object between two nodes
// that each saw themselves as the dominant caller — now converge on one
// stable home.

// intentState tracks one object's current winning intent.
type intentState struct {
	in       wire.Intent
	since    uint64 // tick the current winner became the winner
	lastSeen uint64 // tick the intent was last asserted
}

// betterIntent reports whether a beats b in reconciliation: higher
// priority wins; ties break on lexicographically smaller proposer id,
// then smaller destination — a total order, so every member picks the
// same winner from the same set.
func betterIntent(a, b wire.Intent) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Proposer != b.Proposer {
		return a.Proposer < b.Proposer
	}
	return a.To < b.To
}

// mergeIntentLocked folds one intent into the reconciliation table,
// reporting whether it became (or refreshed) the winner.  Intents for
// cooling-down or already-satisfied objects are refused.  Caller holds
// c.mu.
func (c *Coordinator) mergeIntentLocked(in wire.Intent) bool {
	if in.GUID == "" || in.To == "" || in.To == in.From {
		return false
	}
	if _, cooling := c.cool[in.GUID]; cooling {
		return false
	}
	if home, ok := c.resolveLocked(in.GUID); ok && home.Endpoint == in.To {
		return false // already there
	}
	st, ok := c.intents[in.GUID]
	if !ok {
		c.intents[in.GUID] = &intentState{in: in, since: c.tick, lastSeen: c.tick}
		c.logLocked(Event{Kind: EventIntent, GUID: in.GUID, Class: in.Class,
			From: in.From, To: in.To, Peer: in.Proposer,
			Detail: fmt.Sprintf("priority %d: %s", in.Priority, in.Reason)})
		return true
	}
	st.lastSeen = c.tick
	if in == st.in {
		return true // re-assertion of the current winner
	}
	if betterIntent(in, st.in) {
		// A new winner restarts the settle clock: every member converges
		// on it before anyone executes.
		st.in = in
		st.since = c.tick
		c.logLocked(Event{Kind: EventIntent, GUID: in.GUID, Class: in.Class,
			From: in.From, To: in.To, Peer: in.Proposer,
			Detail: fmt.Sprintf("priority %d supersedes: %s", in.Priority, in.Reason)})
		return true
	}
	return false
}

// Submit offers a locally generated intent (the adapt engine's
// delegation path).  From defaults to this node's endpoint and Proposer
// to its id.  The returned reason explains a refusal ("" when accepted).
func (c *Coordinator) Submit(in wire.Intent) (accepted bool, reason string) {
	if in.Proposer == "" {
		in.Proposer = c.cfg.ID
	}
	if in.From == "" {
		// Unknown source: take the directory's word, if it has one (From
		// is advisory — the executing home checks ownership itself).
		if home, ok := c.Resolve(in.GUID); ok {
			in.From = home.Endpoint
		}
	}
	c.mu.Lock()
	switch {
	case in.GUID == "" || in.To == "":
		reason = "malformed intent"
	case in.From != "" && in.To == in.From:
		reason = "destination is the current home"
	default:
		if _, cooling := c.cool[in.GUID]; cooling {
			reason = "object is cooling down after a recent migration"
			break
		}
		if home, ok := c.resolveLocked(in.GUID); ok && home.Endpoint == in.To {
			reason = "directory already places the object there"
			break
		}
		if !c.mergeIntentLocked(in) {
			reason = "outweighed by a competing intent"
			break
		}
		accepted = true
	}
	c.unlockAndDeliver()
	return accepted, reason
}

// dueIntentsLocked collects the intents this node must execute now: we
// are the object's home (we own the live export), the intent has been
// the stable winner for settleTicks, and no cooldown blocks it.  The
// returned intents are executed by Tick outside the lock.  Caller holds
// c.mu.
func (c *Coordinator) dueIntentsLocked() []wire.Intent {
	var due []wire.Intent
	for g, st := range c.intents {
		if c.tick-st.since < settleTicks {
			continue
		}
		if _, cooling := c.cool[g]; cooling {
			delete(c.intents, g)
			continue
		}
		if st.in.To == c.cfg.Self && c.rt.OwnsGUID(g) {
			// Satisfied trivially: the object is already here.
			delete(c.intents, g)
			continue
		}
		if !c.rt.OwnsGUID(g) {
			continue // not home: the home node executes
		}
		due = append(due, st.in)
	}
	return due
}

// Intents returns a copy of the live reconciliation table (winners
// only), for tests and diagnostics.
func (c *Coordinator) Intents() []wire.Intent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.Intent, 0, len(c.intents))
	for _, st := range c.intents {
		out = append(out, st.in)
	}
	return out
}
