// Package netsim injects simulated network conditions — latency, jitter,
// bandwidth limits and failures — into net.Conn traffic.  It stands in
// for the paper's LAN testbed: experiments run over real sockets on one
// machine while netsim supplies the propagation characteristics, so the
// protocol comparisons measure shape rather than this machine's loopback.
// On Linux a link wakes on a timerfd, so it keeps its published delay
// even in an idle process, where a Go timer rounds up to a millisecond.
package netsim

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes simulated link conditions.  The zero value is a
// perfect link.
//
// Delay model: each connection keeps a link clock.  A frame starts
// serialising once the link is free, occupies it for len*8/BandwidthBps,
// and is delivered to the peer one Latency (plus jitter) after its last
// bit went out, in write order, by a per-connection delivery goroutine.
// Write returns at once unless the link's backlog exceeds one Latency, so
// a link buffers one bandwidth × delay of bytes and blocks the sender
// beyond that, as a socket's send window would.  A pipelined protocol
// (the multiplexed RRP transport) can therefore keep many frames in
// flight across a simulated link, exactly as it could on a real one.
type Profile struct {
	// Latency is the one-way propagation delay applied to each write.
	Latency time.Duration
	// Jitter adds a deterministic pseudo-random extra delay in
	// [0, Jitter) per write.
	Jitter time.Duration
	// BandwidthBps, when positive, gives each write len(p)*8/BandwidthBps
	// of serialisation time on the link clock.
	BandwidthBps int64
	// FailAfterWrites, when positive, makes every write after the Nth
	// fail with a connection error — the §4 network-failure caveat.
	FailAfterWrites int64
	// Seed drives jitter; a fixed seed keeps runs reproducible.
	Seed uint64
	// Faults, when non-nil, injects seeded per-link chaos — frame
	// duplication, silent drops and mid-flight connection kills — the
	// adversary the E12 exactly-once experiment runs against.  A pointer
	// keeps Profile comparable (the zero-Profile fast paths).
	Faults *Faults
}

// Faults is a seeded per-link fault schedule.  Each wrapped connection
// derives its own deterministic pseudo-random stream from Seed and a
// per-process connection ordinal, and consults it once per write:
//
//   - with probability KillPerMille/1000 the connection dies before the
//     frame goes out (the frame is lost, the writer sees the error
//     immediately, readers on both sides unblock with a closed
//     connection) — a mid-flight connection kill;
//   - else with probability DropPerMille/1000 the frame is silently
//     swallowed (the writer is told it was sent) and the connection is
//     torn down shortly after — loss followed by the compressed
//     equivalent of a retransmission-timeout reset, since a stream
//     transport cannot lose one frame and keep the framing;
//   - else with probability DupPerMille/1000 the frame is delivered
//     twice, back to back — duplication at the delivery layer, which is
//     exactly what a transport-level retry after a lost response looks
//     like to the application.
//
// Writes here are frames: the transports write one complete frame per
// Write call (net.Buffers falls back to per-buffer writes on wrapped
// conns), so duplication and loss are frame-granular and framing stays
// valid.
type Faults struct {
	// Seed drives the fault schedule; runs with the same seed and
	// connection order inject the same faults.
	Seed uint64
	// DupPerMille is the per-write probability (0-1000) of duplicating
	// the frame.
	DupPerMille int
	// DropPerMille is the per-write probability (0-1000) of silently
	// losing the frame and tearing the link down asynchronously.
	DropPerMille int
	// KillPerMille is the per-write probability (0-1000) of killing the
	// connection before the frame is sent.
	KillPerMille int
	// FirstSafeWrites exempts each connection's first N writes, so a
	// link can always complete a handshake-like prefix before chaos
	// starts (and low-traffic control connections mostly escape).
	FirstSafeWrites int64
}

// connSeq hands each faulty connection a distinct ordinal, decorrelating
// the per-connection fault streams under one seed.
var connSeq atomic.Uint64

// Common profiles used by the experiments.
var (
	// LAN approximates the paper's local-area deployment target.
	LAN = Profile{Latency: 100 * time.Microsecond, BandwidthBps: 1e9}
	// Campus is a multi-switch network.
	Campus = Profile{Latency: 500 * time.Microsecond, Jitter: 100 * time.Microsecond, BandwidthBps: 1e8}
	// WAN is a wide-area link.
	WAN = Profile{Latency: 20 * time.Millisecond, Jitter: 2 * time.Millisecond, BandwidthBps: 1e7}
)

// Conn wraps c with the profile's behaviour.
func (p Profile) Conn(c net.Conn) net.Conn {
	if p == (Profile{}) {
		return c
	}
	w := &conn{Conn: c, p: p, rng: p.Seed | 1}
	if p.Faults != nil {
		// Each connection gets its own deterministic fault stream: the
		// schedule seed folded with a process-wide connection ordinal.
		w.frng = splitmix(p.Faults.Seed^(connSeq.Add(1)*0x9e3779b97f4a7c15)) | 1
	}
	return w
}

// Listener wraps l so every accepted connection carries the profile.
func (p Profile) Listener(l net.Listener) net.Listener {
	if p == (Profile{}) {
		return l
	}
	return &listener{Listener: l, p: p}
}

// Dialer wraps a dial function so produced connections carry the profile.
func (p Profile) Dialer(dial func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	if p == (Profile{}) {
		return dial
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return p.Conn(c), nil
	}
}

type listener struct {
	net.Listener
	p Profile
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.p.Conn(c), nil
}

type conn struct {
	net.Conn
	p      Profile
	writes atomic.Int64
	killed atomic.Bool // fault-injected death; later writes fail fast

	mu   sync.Mutex
	frng uint64 // fault stream, separate so faults don't perturb jitter

	// The link: bytes accepted but not yet delivered, in write order, and
	// one mark per frame giving where it ends in pend and when it is due.
	// A single delivery goroutine, started by the first delayed write,
	// hands every due byte to the underlying connection in one Write.
	dmu     sync.Mutex
	rng     uint64        // jitter stream
	busy    time.Duration // link clock: when the last accepted frame is serialised
	last    time.Duration // latest due time, keeps FIFO order
	pend    []byte
	marks   []mark
	wake    chan struct{} // rouses an idle delivery goroutine; nil until it starts
	dclosed bool
	derr    error // first background delivery error
}

// mark is one frame on the link: pend[:end] ends with it, and it reaches
// the peer at due.
type mark struct {
	end int
	due time.Duration
}

var epoch = time.Now() // link clocks are monotonic durations since epoch

// FailedError reports an injected connection failure.
type FailedError struct{ Writes int64 }

func (e *FailedError) Error() string {
	return fmt.Sprintf("netsim: injected failure after %d writes", e.Writes)
}

func (c *conn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.killed.Load() {
		return 0, &FailedError{Writes: n - 1}
	}
	if c.p.FailAfterWrites > 0 && n > c.p.FailAfterWrites {
		return 0, &FailedError{Writes: n - 1}
	}
	dup := false
	if f := c.p.Faults; f != nil && n > f.FirstSafeWrites {
		c.mu.Lock()
		c.frng = splitmix(c.frng)
		roll := c.frng % 1000
		c.mu.Unlock()
		switch {
		case roll < uint64(f.KillPerMille):
			// Mid-flight kill: this frame is lost and the connection is
			// dead; the writer learns immediately, readers on both ends
			// unblock on the close.
			c.kill()
			return 0, &FailedError{Writes: n - 1}
		case roll < uint64(f.KillPerMille+f.DropPerMille):
			// Silent loss: the writer is told the frame was sent.  A
			// stream cannot skip one frame and keep its framing, so the
			// link is torn down shortly after — the compressed equivalent
			// of the retransmission timeout that follows real loss.
			go func() {
				time.Sleep(c.p.Latency + time.Millisecond)
				c.kill()
			}()
			return len(p), nil
		case roll < uint64(f.KillPerMille+f.DropPerMille+f.DupPerMille):
			dup = true
		}
	}
	c.dmu.Lock()
	if c.derr != nil {
		err := c.derr
		c.dmu.Unlock()
		return 0, err
	}
	if c.dclosed {
		c.dmu.Unlock()
		return 0, net.ErrClosed
	}
	// Serialisation: the frame goes out once the link is free.  The
	// sender waits only for backlog beyond one propagation delay.
	now := time.Since(epoch)
	c.busy = max(c.busy, now)
	if c.p.BandwidthBps > 0 {
		c.busy += time.Duration(int64(len(p)) * 8 * int64(time.Second) / c.p.BandwidthBps)
	}
	block := c.busy - now - c.p.Latency
	if c.p.Latency <= 0 && c.p.Jitter <= 0 {
		c.dmu.Unlock()
		if block > 0 {
			time.Sleep(block)
		}
		if dup {
			if _, err := c.Conn.Write(p); err != nil {
				return 0, err
			}
		}
		return c.Conn.Write(p)
	}
	// Propagation: the frame travels while the sender moves on.
	due := c.busy + c.p.Latency
	if c.p.Jitter > 0 {
		c.rng = splitmix(c.rng)
		due += time.Duration(c.rng % uint64(c.p.Jitter))
	}
	due = max(due, c.last) // jitter must not reorder frames
	c.last = due
	if c.wake == nil {
		t, err := newTimer()
		if err != nil {
			c.dmu.Unlock()
			return 0, err
		}
		c.wake = make(chan struct{}, 1)
		go c.deliver(t)
	}
	if len(c.marks) == 0 {
		c.rouse()
	}
	// Copy: callers recycle their buffers as soon as Write returns.
	c.pend = append(c.pend, p...)
	if dup {
		c.pend = append(c.pend, p...) // delivered back to back
	}
	c.marks = append(c.marks, mark{end: len(c.pend), due: due})
	c.dmu.Unlock()
	if block > 0 {
		time.Sleep(block) // back-pressure: only beyond one bandwidth × delay
	}
	return len(p), nil
}

// rouse wakes the delivery goroutine, if any, when it waits for a first
// frame or for Close; c.dmu is held.
func (c *conn) rouse() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// kill marks the connection dead to future writes and tears it down,
// unblocking readers on both ends.
func (c *conn) kill() {
	if c.killed.Swap(true) {
		return
	}
	_ = c.Close()
}

// deliver is the link's delivery goroutine; it owns t.  It waits until
// the head frame is due, then writes every due byte at once.  Two buffers
// alternate between pend and the write in progress, so a warm link copies
// each frame once and allocates nothing.
func (c *conn) deliver(t *timer) {
	defer t.close()
	var spare []byte
	for {
		c.dmu.Lock()
		for len(c.marks) == 0 && !c.dclosed {
			c.dmu.Unlock()
			<-c.wake
			c.dmu.Lock()
		}
		if c.dclosed {
			c.dmu.Unlock()
			return
		}
		now := time.Since(epoch)
		if wait := c.marks[0].due - now; wait > 0 {
			c.dmu.Unlock()
			t.sleep(wait)
			continue
		}
		n := 1
		for n < len(c.marks) && c.marks[n].due <= now {
			n++
		}
		end := c.marks[n-1].end
		out := c.pend[:end]
		c.pend = append(spare[:0], c.pend[end:]...)
		c.marks = c.marks[:copy(c.marks, c.marks[n:])]
		for i := range c.marks {
			c.marks[i].end -= end
		}
		c.dmu.Unlock()
		if _, err := c.Conn.Write(out); err != nil {
			c.dmu.Lock()
			if c.derr == nil {
				c.derr = err
			}
			c.dmu.Unlock()
			return
		}
		spare = out
	}
}

// Close tears the link down immediately: frames still "in flight" on the
// link are lost, as on a real abruptly-closed connection.
func (c *conn) Close() error {
	c.dmu.Lock()
	c.dclosed = true
	c.rouse()
	c.dmu.Unlock()
	return c.Conn.Close()
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
