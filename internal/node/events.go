package node

import (
	"sync"
	"time"

	"rafda/internal/adapt"
	"rafda/internal/cluster"
)

// Event is one entry of the node's control log: a decision of the
// adaptive engine or an occurrence in the cluster coordination plane.
// Exactly one of Adapt and Cluster is set.  Seq is monotonic over the
// node's lifetime, so a reader can tell that older entries were
// trimmed.
type Event struct {
	Seq     uint64          `json:"seq"`
	At      time.Time       `json:"at"`
	Adapt   *adapt.Decision `json:"adapt,omitempty"`
	Cluster *cluster.Event  `json:"cluster,omitempty"`
}

// maxControlLog bounds the control log: a daemon node with a
// persistently recurring (budget-suppressed) proposal logs one decision
// per confirm period forever, so the log keeps the most recent entries.
const maxControlLog = 1024

// controlLog is the node's bounded control log, always on (tracing or
// not).  Entries are rare — one per decision or coordination event — so
// one mutex suffices.
type controlLog struct {
	mu  sync.Mutex
	seq uint64
	buf []Event // ring: the entry with sequence s sits at (s-1) % maxControlLog
}

// add stamps e with the next sequence number and the current time and
// appends it, overwriting the oldest entry once the log is full.
func (l *controlLog) add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq, e.At = l.seq, time.Now()
	if len(l.buf) < maxControlLog {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[(l.seq-1)%maxControlLog] = e
}

// Events returns the control log, oldest first.
func (n *Node) Events() []Event {
	l := &n.events
	l.mu.Lock()
	defer l.mu.Unlock()
	i := int(l.seq % maxControlLog) // the oldest entry once the ring has wrapped
	out := make([]Event, 0, len(l.buf))
	return append(append(out, l.buf[i:]...), l.buf[:i]...)
}

// RecordDecision implements adapt.Node: every engine decision, whatever
// its outcome, lands in the control log.
func (n *Node) RecordDecision(d adapt.Decision) { n.events.add(Event{Adapt: &d}) }

// RecordEvent implements cluster.Runtime: every coordination event lands
// in the control log.
func (r *clusterRuntime) RecordEvent(e cluster.Event) { r.n.events.add(Event{Cluster: &e}) }
