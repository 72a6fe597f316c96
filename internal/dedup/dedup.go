// Package dedup implements the exactly-once invocation contract's two
// halves: the caller-side Issuer that stamps every logical call with a
// (caller, sequence, attempt) token, and the callee-side Table of
// bounded per-caller windows that recognises duplicate deliveries of a
// tokened call and suppresses their re-execution.
//
// The protocol (docs/CONCURRENCY.md §10 spells out the full contract):
//
//   - Every logical call gets one token for its lifetime.  Physical
//     retries — transport shard failover, a duplicated frame, a
//     re-send at a migrated object's new home — reuse the token with
//     the attempt ordinal bumped.
//   - The callee keeps one window per caller, with entries keyed by
//     (sequence, target).  The first delivery of a (sequence, target)
//     executes and its response is recorded; a duplicate of an
//     in-flight call parks until the first attempt completes and then
//     replays its response; a duplicate of a completed call replays
//     immediately; a duplicate of a retired call is rejected (never
//     re-executed — at-most-once is preserved even past the cache).
//     The same sequence arriving for a different target is not a
//     duplicate: it is the same logical call revisiting this node
//     further down a proxy-forwarding chain (tokens propagate across
//     forwards), and it executes under its own entry rather than
//     deadlocking parked behind its own in-flight ancestor.
//   - Entries retire by the caller's acked watermark (Token.Ack,
//     piggybacked on every subsequent request: the caller has the
//     response for every sequence <= Ack, so replay can never be
//     needed).  A bounded replay cache caps memory regardless of ack
//     progress: past the cap the oldest completed entries are evicted,
//     leaving a tombstone each so that a late duplicate is still
//     rejected while a lower sequence that has simply not arrived yet —
//     stamped, then delayed in transit while the caller's other threads
//     raced ahead — still executes.  Tombstones are bounded too: past
//     tombstoneFactor x cap the retired watermark advances over them.
//
// # Thread safety
//
// Issuer and Table are safe for concurrent use.  A window's lock is
// held only for map bookkeeping — never across an execution or a park —
// so dedup adds two short critical sections per tokened call.
package dedup

import (
	"sync"

	"rafda/internal/metrics"
	"rafda/internal/wire"
)

// DefaultWindow is the default per-caller replay-cache bound (completed
// entries retained for replay); in-flight entries are bounded by the
// transport's per-connection in-flight cap, not by this.
const DefaultWindow = 1024

// tombstoneFactor bounds, as a multiple of the replay-cache cap, how
// many evicted calls a window remembers individually above the caller's
// acked watermark.  A tombstone is a key, not a response, so the bound
// can be generous: it is how many calls a caller's other threads may
// complete while one stamped call is still in transit before that call
// is refused as a retired duplicate.
const tombstoneFactor = 64

// Issuer allocates call tokens for one node incarnation and tracks
// which sequences have had their responses delivered, maintaining the
// ack watermark every outgoing token piggybacks.
type Issuer struct {
	caller string

	mu      sync.Mutex
	next    uint64
	floor   uint64              // every seq <= floor is finished
	pending map[uint64]struct{} // finished seqs above a gap, awaiting floor advance
}

// NewIssuer returns an issuer stamping tokens for the given caller
// incarnation id.  The id must be unique per node *instance* (a restart
// must not reuse its predecessor's id, or stale windows at peers could
// confuse the two histories); the node runtime derives it from its GUID
// generator.
func NewIssuer(caller string) *Issuer {
	return &Issuer{caller: caller, pending: make(map[uint64]struct{})}
}

// Stamp allocates the next sequence and stamps req with a fresh token
// carrying the current ack watermark.  It returns the sequence for the
// matching Finish call.
func (i *Issuer) Stamp(req *wire.Request) uint64 {
	tok := i.Issue()
	req.Token = &tok
	return tok.Seq
}

// Issue allocates the next sequence and returns its token, carrying the
// current ack watermark, by value: a caller that owns storage for the
// token stamps it there instead of allocating one.  Finish(tok.Seq)
// settles it.
func (i *Issuer) Issue() wire.CallToken {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.next++
	return wire.CallToken{Caller: i.caller, Seq: i.next, Ack: i.floor}
}

// Finish marks seq's logical call settled at the caller: its response
// was delivered (or the call was abandoned after a terminal transport
// error — the caller will never re-send the token, so the callee's
// entry is dead weight either way).  The watermark advances over every
// contiguous finished sequence.
func (i *Issuer) Finish(seq uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if seq <= i.floor {
		return
	}
	i.pending[seq] = struct{}{}
	for {
		if _, ok := i.pending[i.floor+1]; !ok {
			return
		}
		delete(i.pending, i.floor+1)
		i.floor++
	}
}

// Ack returns the current watermark (for tests and diagnostics).
func (i *Issuer) Ack() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.floor
}

// Table is one node's dedup state: a window per caller incarnation.
//
// Its instruments always record: they are the E12 chaos experiment's
// pass/fail evidence and the operator's only view of suppression
// working.  replayHits counts duplicates answered from the replay
// cache; parked those that waited for an in-flight first attempt;
// staleRejected duplicates of retired calls, refused and never
// re-executed; retired entries dropped by ack watermark or cache
// eviction; adopted entries seeded from migration snapshots.  entries
// is the live completed-entry gauge across all windows, windows the
// live per-caller window gauge.
type Table struct {
	cap int

	replayHits, parked, staleRejected, retired, adopted *metrics.Counter
	entries, windowCount                                *metrics.Gauge

	mu      sync.Mutex
	windows map[string]*Window
}

// NewTable builds a table whose windows retain up to cap completed
// entries each (cap <= 0 takes DefaultWindow), counting into
// unregistered instruments.
func NewTable(cap int) *Table { return NewTableIn(nil, cap) }

// NewTableIn is NewTable counting into reg's "dedup.*" instruments.
func NewTableIn(reg *metrics.Registry, cap int) *Table {
	if cap <= 0 {
		cap = DefaultWindow
	}
	return &Table{
		cap:           cap,
		replayHits:    reg.Counter("dedup.replay_hits"),
		parked:        reg.Counter("dedup.parked"),
		staleRejected: reg.Counter("dedup.stale_rejected"),
		retired:       reg.Counter("dedup.retired"),
		adopted:       reg.Counter("dedup.adopted"),
		entries:       reg.Gauge("dedup.entries"),
		windowCount:   reg.Gauge("dedup.windows"),
		windows:       make(map[string]*Window),
	}
}

// Cap returns the per-caller completed-entry bound.
func (t *Table) Cap() int { return t.cap }

// window returns caller's window, creating it on first use.
func (t *Table) window(caller string) *Window {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.windows[caller]
	if !ok {
		w = &Window{table: t, entries: make(map[entryKey]*Entry)}
		t.windows[caller] = w
		t.windowCount.Add(1)
	}
	return w
}

// entryKey identifies one delivery stream within a window.  Entries
// are keyed by (sequence, target), not sequence alone: a forwarded
// call keeps the originating caller's token across proxy hops, so the
// same sequence can legitimately execute at this node more than once —
// against a *different* target each time — when a forwarding chain
// revisits it (g1 here → g2 elsewhere → g3 back here after two
// migrations).  Keying by sequence alone made that revisit park behind
// its own in-flight ancestor: a distributed self-deadlock.  With the
// target in the key, only a true re-delivery of the same hop (same
// target — a transport failover retry) parks or replays.
type entryKey struct {
	seq    uint64
	target string
}

// Window is one caller's dedup state at this node.
type Window struct {
	table *Table

	mu      sync.Mutex
	entries map[entryKey]*Entry
	// retired is the watermark below which entries have been dropped
	// (acked by the caller, or evicted past the tombstone bound): every
	// seq <= retired is settled and a late duplicate of it must be
	// rejected, not executed.
	retired uint64
	// evicted holds a tombstone for every completed entry the cache
	// bound dropped above the watermark: a delivery matching one is a
	// late duplicate (Stale), while a sequence above the watermark with
	// neither entry nor tombstone has never been here and executes.
	// evictedOrder lists them as evicted — ascending by sequence, like
	// the evictions — so the watermark prunes from the front.
	evicted      map[entryKey]struct{}
	evictedOrder []entryKey
	// completed counts entries in entries with a recorded response (the
	// replay cache); the cap applies to these, not to in-flight entries.
	completed int
	// minSeq-ish eviction scan cursor: completed entries are evicted in
	// ascending seq order; lowSeq lower-bounds the scan so eviction stays
	// amortised O(1) per insert.
	lowSeq uint64
}

// Entry tracks one logical call at the callee.
type Entry struct {
	seq    uint64
	target string  // GUID or class key the call executed against (migration filter)
	w      *Window // the window the entry was admitted to; Complete locks only it

	// done is made, under w.mu, by the first duplicate that parks on the
	// in-flight entry, and closed by Complete once resp is set: a call
	// nobody re-delivers never allocates one.
	done chan struct{}
	resp *wire.Response // recorded response, under w.mu; nil while in flight
}

// Verdict says what a delivery should do.
type Verdict int

const (
	// Execute: first delivery of the sequence — run the call, then
	// Complete the entry.
	Execute Verdict = iota
	// Replay: duplicate of a settled call — answer with Entry.Response
	// without executing.  (A duplicate of an in-flight call parks inside
	// Begin until the first attempt completes, then returns Replay.)
	Replay
	// Stale: duplicate of a retired call — reject without executing.
	Stale
)

// Begin admits one tokened delivery.  target names what the call will
// execute against (object GUID or class singleton key); it travels with
// the entry so migration can ship the object's slice of the window.
//
// A duplicate of an in-flight sequence blocks here until the first
// attempt completes — the park that turns concurrent duplicate
// deliveries into one execution — so Begin must not be called while
// holding locks the executing attempt needs.
//
// Entries are matched by (sequence, target): the same token arriving
// for a different target is a forwarding-chain hop of the same logical
// call revisiting this node, not a duplicate delivery, and gets its own
// entry so it executes instead of parking behind its in-flight ancestor
// (docs/CONCURRENCY.md §10).
func (t *Table) Begin(tok *wire.CallToken, target string) (*Entry, Verdict) {
	e, verdict, _ := t.BeginObserved(tok, target)
	return e, verdict
}

// BeginObserved is Begin plus the park observation: parked reports
// whether this delivery was a duplicate of an in-flight call and
// blocked until the first attempt completed (such deliveries return
// Replay like any settled duplicate).  The node's trace plane records
// the distinction — a parked duplicate spent wall-clock waiting, a
// replayed one answered immediately.
func (t *Table) BeginObserved(tok *wire.CallToken, target string) (_ *Entry, _ Verdict, parked bool) {
	w := t.window(tok.Caller)
	w.mu.Lock()
	w.retire(tok.Ack)
	// The entry lookup runs BEFORE the watermark check: cap eviction
	// (evictOverCap) can advance the watermark over a sequence whose
	// sibling entries — same sequence, different target, legal on a
	// forwarding chain — are still windowed, in flight or cached.  A
	// retry of one of those must park or replay its own entry; only a
	// sequence with no surviving entry is judged by the watermark.
	if e, ok := w.entries[entryKey{tok.Seq, target}]; ok {
		inFlight := e.resp == nil
		if inFlight && e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		w.mu.Unlock()
		if inFlight {
			t.parked.Inc()
			<-done // first attempt completes and records its response
		} else {
			t.replayHits.Inc()
		}
		return e, Replay, inFlight
	}
	_, evicted := w.evicted[entryKey{tok.Seq, target}]
	if evicted || tok.Seq <= w.retired {
		w.mu.Unlock()
		t.staleRejected.Inc()
		return nil, Stale, false
	}
	e := &Entry{seq: tok.Seq, target: target, w: w}
	w.entries[entryKey{tok.Seq, target}] = e
	w.mu.Unlock()
	return e, Execute, false
}

// Complete records the executed call's response on e and releases any
// parked duplicates.  The response is retained for replay until the
// entry retires; callers must not mutate it afterwards.  The entry
// remembers the window Begin admitted it to — caller's — so completion
// takes only that window's lock, never the table's.
func (t *Table) Complete(caller string, e *Entry, resp *wire.Response) {
	w := e.w
	w.mu.Lock()
	e.resp = resp
	// The entry may already have been shipped out by a migration racing
	// this completion; only count it if it is still ours.
	if w.entries[entryKey{e.seq, e.target}] == e {
		w.completed++
		t.entries.Add(1)
		w.evictOverCap()
	}
	done := e.done
	w.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Response returns the recorded response re-addressed to wire id.  The
// duplicate's transport correlation id differs from the original's, so
// the replayed copy carries the duplicate's.
func (e *Entry) Response(id uint64) *wire.Response {
	resp := *e.resp
	resp.ID = id
	return &resp
}

// retire drops every completed entry with seq <= ack.  In-flight
// entries above the watermark are untouched (they cannot be acked: the
// caller acks only delivered responses).  Caller holds w.mu.
func (w *Window) retire(ack uint64) {
	if ack <= w.retired {
		return
	}
	for k, e := range w.entries {
		if k.seq <= ack && e.resp != nil {
			delete(w.entries, k)
			w.completed--
			w.table.entries.Add(-1)
			w.table.retired.Inc()
		}
	}
	w.retired = ack
	w.dropTombstones()
}

// dropTombstones forgets the tombstones the watermark now covers.
// Caller holds w.mu.
func (w *Window) dropTombstones() {
	n := 0
	for n < len(w.evictedOrder) && w.evictedOrder[n].seq <= w.retired {
		delete(w.evicted, w.evictedOrder[n])
		n++
	}
	if w.evictedOrder = w.evictedOrder[n:]; len(w.evictedOrder) == 0 {
		w.evictedOrder = nil // release the backing array
	}
}

// evictOverCap enforces the replay-cache bound: completed entries past
// the cap are dropped in ascending sequence order, each leaving a
// tombstone so a late duplicate of an evicted call is rejected as Stale
// rather than re-executed.  The watermark does not move: a caller with
// several threads can have a lower sequence still in transit (stamped,
// its thread descheduled before the send) while the others complete a
// cap's worth of calls, and advancing over it refused a call that had
// never run.  Only when the tombstones themselves outgrow their bound
// does the watermark advance over all of them.  Sibling entries at an
// evicted sequence (other targets on a forwarding chain) may survive —
// in flight or cached — which is why Begin matches the entries map
// first: their retries keep parking or replaying.  Caller holds w.mu.
func (w *Window) evictOverCap() {
	for w.completed > w.table.cap {
		// Find the smallest completed seq at or above the scan cursor.
		var victim entryKey
		var found bool
		for k, e := range w.entries {
			if e.resp == nil || k.seq < w.lowSeq {
				continue
			}
			if !found || k.seq < victim.seq {
				victim, found = k, true
			}
		}
		if !found {
			return
		}
		min := victim.seq
		delete(w.entries, victim)
		w.completed--
		// The cursor advances to min, not past it: a forwarding chain can
		// leave sibling entries at the same sequence (one per target), and
		// min+1 would orphan the survivors below the scan floor.
		w.lowSeq = min
		if min > w.retired {
			if w.evicted == nil {
				w.evicted = make(map[entryKey]struct{})
			}
			w.evicted[victim] = struct{}{}
			w.evictedOrder = append(w.evictedOrder, victim)
			if len(w.evicted) > tombstoneFactor*w.table.cap {
				w.retired = min // the newest tombstone: covers them all
				w.dropTombstones()
			}
		}
		w.table.entries.Add(-1)
		w.table.retired.Inc()
	}
}

// ExtractFor removes and returns every completed entry recorded against
// target, in wire form, for shipment inside a migration snapshot.  The
// entries leave this node's windows — the object's dedup history moves
// with the object — but the per-caller retired watermarks stay, so a
// duplicate arriving here after the move is still recognised (as Stale
// if below the watermark, or forwarded with its token so the new home's
// adopted window replays it).  In-flight entries stay: their executions
// are completing here and their responses will be recorded here.
func (t *Table) ExtractFor(target string) []wire.DedupEntry {
	t.mu.Lock()
	type wref struct {
		caller string
		w      *Window
	}
	ws := make([]wref, 0, len(t.windows))
	for caller, w := range t.windows {
		ws = append(ws, wref{caller, w})
	}
	t.mu.Unlock()
	var out []wire.DedupEntry
	for _, r := range ws {
		r.w.mu.Lock()
		for k, e := range r.w.entries {
			if e.target != target || e.resp == nil {
				continue
			}
			out = append(out, wire.DedupEntry{Caller: r.caller, Seq: k.seq, Resp: *e.resp})
			delete(r.w.entries, k)
			r.w.completed--
			t.entries.Add(-1)
		}
		r.w.mu.Unlock()
	}
	return out
}

// Adopt seeds windows from a migration snapshot's shipped entries,
// recorded against target (the object's GUID at this node).  Entries at
// or below a window's retired watermark are dropped — the caller
// already acked them here.
func (t *Table) Adopt(target string, entries []wire.DedupEntry) {
	for i := range entries {
		in := &entries[i]
		w := t.window(in.Caller)
		w.mu.Lock()
		if in.Seq <= w.retired {
			w.mu.Unlock()
			continue
		}
		_, evicted := w.evicted[entryKey{in.Seq, target}]
		if _, ok := w.entries[entryKey{in.Seq, target}]; ok || evicted {
			w.mu.Unlock()
			continue
		}
		resp := in.Resp
		// Already complete: nothing will ever park on it, so no done channel.
		e := &Entry{seq: in.Seq, target: target, w: w, resp: &resp}
		w.entries[entryKey{in.Seq, target}] = e
		w.completed++
		t.entries.Add(1)
		t.adopted.Inc()
		w.evictOverCap()
		w.mu.Unlock()
	}
}
