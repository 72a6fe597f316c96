package cluster

import (
	"sort"

	"rafda/internal/wire"
)

// The placement directory is an eventually consistent, versioned map of
// where things live:
//
//   - object entries chain a stale GUID to the object's current
//     reference (GUID at its new home); successive migrations produce a
//     chain g1→g2@B, g2→g3@C which the resolution snapshot collapses,
//     so a caller holding a reference N migrations old reaches the
//     final home in one hop instead of walking N Response.Redirect
//     forwarding hops;
//   - class entries ("class:Name") record the placement every member's
//     policy table converges on, with Version as the policy epoch.
//
// Entries merge by (Version, Origin): higher version wins, equal
// versions tie-break on the lexicographically greater origin id — a
// deterministic total order, and safe because only an object's
// home-at-the-time writes a new version for its key.

// mergeDirLocked folds received entries into the directory, returning
// the class placements that must be applied to the local policy table
// (performed by the caller outside the lock).  Caller holds c.mu.
func (c *Coordinator) mergeDirLocked(entries []wire.DirEntry) []classApply {
	var applies []classApply
	changed := false
	for _, e := range entries {
		if e.Key == "" {
			continue
		}
		cur, ok := c.dir[e.Key]
		if ok && !newerEntry(e, cur) {
			// Known entry — but an epoch whose local apply failed earlier
			// is still pending, so re-gossip of the same entry retries it.
			if class, isClass := isClassKey(e.Key); isClass && c.applied[class] < cur.Version {
				applies = append(applies, classApply{class: class, endpoint: cur.Ref.Endpoint, version: cur.Version})
			}
			continue
		}
		c.dir[e.Key] = e
		changed = true
		c.logLocked(Event{Kind: EventDir, GUID: e.Key, To: e.Ref.Endpoint,
			Detail: e.Ref.GUID, Peer: e.Origin})
		class, isClass := isClassKey(e.Key)
		if isClass {
			if c.applied[class] < e.Version {
				applies = append(applies, classApply{class: class, endpoint: e.Ref.Endpoint, version: e.Version})
			}
		} else {
			// A fresh object entry is an observed migration: start the
			// cooldown here too, so the guard is cluster-wide — without
			// this, only the OLD home refuses follow-up intents and the
			// NEW home would happily execute the reverse migration two
			// settle-ticks after the move (classic ping-pong).
			c.startCooldownLocked(e.Key, e.Ref.GUID)
		}
		// A fresher home also clears intents the move has satisfied.
		if st, live := c.intents[e.Key]; live && st.in.To == e.Ref.Endpoint {
			delete(c.intents, e.Key)
		}
	}
	if changed {
		c.rebuildSnapLocked()
	}
	return applies
}

// classApply is one pending local policy update from a class entry.
type classApply struct {
	class    string
	endpoint string // "" = local placement
	version  uint64 // epoch, recorded as applied only on success
}

// startCooldownLocked opens the intent-refusal window for an object's
// old and new identities.  Caller holds c.mu.
func (c *Coordinator) startCooldownLocked(key, newGUID string) {
	until := c.tick + cooldownTicks
	c.cool[key] = until
	if newGUID != "" && newGUID != key {
		c.cool[newGUID] = until
	}
}

// newerEntry reports whether a should replace b for the same key.
func newerEntry(a, b wire.DirEntry) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	return a.Origin > b.Origin
}

// RecordMove publishes a migration into the directory: the object
// exported under key now lives at ref.  The node runtime calls this
// after every successful outbound migration (manual, adaptive or
// cluster-executed), so the directory tracks moves whichever path made
// them.  The moved object also enters its cooldown window, the
// cluster-wide ping-pong guard.
func (c *Coordinator) RecordMove(key, class string, ref wire.RemoteRef) {
	c.mu.Lock()
	v := c.dir[key].Version + 1
	c.dir[key] = wire.DirEntry{Key: key, Ref: ref, Version: v, Origin: c.cfg.ID}
	c.startCooldownLocked(key, ref.GUID)
	delete(c.intents, key)
	delete(c.rollups, key)
	c.rebuildSnapLocked()
	c.logLocked(Event{Kind: EventDir, GUID: key, Class: class, To: ref.Endpoint, Detail: ref.GUID})
	c.unlockAndDeliver()
}

// RecordClassPlacement publishes a class placement (endpoint "" = local)
// as the next policy epoch for that class.  The local policy table has
// already been updated by whoever calls this; followers apply it as the
// entry gossips outward.
func (c *Coordinator) RecordClassPlacement(class, endpoint string) {
	key := "class:" + class
	c.mu.Lock()
	v := c.dir[key].Version + 1
	c.dir[key] = wire.DirEntry{
		Key:     key,
		Ref:     wire.RemoteRef{Endpoint: endpoint, Target: class},
		Version: v,
		Origin:  c.cfg.ID,
	}
	c.applied[class] = v
	c.rebuildSnapLocked()
	c.logLocked(Event{Kind: EventDir, Class: class, To: endpoint})
	c.unlockAndDeliver()
}

// maxChain bounds chain-following during snapshot collapse (a cycle
// cannot arise from well-formed moves, but a malformed peer must not
// hang us).
const maxChain = 16

// rebuildSnapLocked republishes the collapsed resolution view.  Caller
// holds c.mu.
func (c *Coordinator) rebuildSnapLocked() {
	snap := make(map[string]wire.RemoteRef, len(c.dir))
	for key := range c.dir {
		if _, isClass := isClassKey(key); isClass {
			continue
		}
		snap[key], _ = c.resolveLocked(key)
	}
	c.dirSnap.Store(&snap)
}

// Resolve returns the directory's view of where the object behind guid
// lives now — already chain-collapsed, so the answer is the final home.
// Lock-free: proxies consult it on every remote invocation.
func (c *Coordinator) Resolve(guid string) (wire.RemoteRef, bool) {
	snap := c.dirSnap.Load()
	if snap == nil {
		return wire.RemoteRef{}, false
	}
	ref, ok := (*snap)[guid]
	return ref, ok
}

// resolveLocked is Resolve for callers already holding c.mu (reads the
// raw directory, following chains); the snapshot Resolve reads is built
// from it.
func (c *Coordinator) resolveLocked(guid string) (wire.RemoteRef, bool) {
	e, ok := c.dir[guid]
	if !ok {
		return wire.RemoteRef{}, false
	}
	ref := e.Ref
	for hop := 0; hop < maxChain; hop++ {
		next, ok := c.dir[ref.GUID]
		if !ok || ref.GUID == guid || ref.GUID == "" {
			break
		}
		ref = next.Ref
	}
	return ref, true
}

// Directory returns a copy of the raw directory entries, sorted by key.
func (c *Coordinator) Directory() []wire.DirEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.DirEntry, 0, len(c.dir))
	for _, e := range c.dir {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
