package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rafda/internal/metrics"
	"rafda/internal/wire"
)

// RRP — the RAFDA Remote Protocol — is the binary TCP transport playing
// the paper's "RMI-based proxy" role: persistent connections carrying
// length-prefixed frames in the wire package's binary encoding.
//
// The protocol is fully multiplexed.  A client correlates responses to
// in-flight calls by request ID, so any number of goroutines share one
// connection with their calls pipelined rather than serialised behind a
// per-call round-trip lock.  The server decodes frames on the
// connection's read loop and runs each request on one of the
// connection's (bounded) warm workers; responses return in completion
// order, not arrival order.  Both directions write a frame through when
// the socket is idle and coalesce frames queued behind a busy writer
// into vectored writes.  DESIGN.md documents the framing and
// correlation rules.
type RRP struct {
	opts Options
	ov   overload
}

// overload is the serve plane's instruments, shared by every server
// and connection of one transport.
type overload struct {
	rejects, expiries, stalls *metrics.Counter
	inflight                  *metrics.Gauge
}

// NewRRP returns the RRP transport.
func NewRRP(opts Options) *RRP {
	reg := opts.Metrics
	return &RRP{opts: opts, ov: overload{
		rejects:  reg.Counter("overload.admission_rejects"),
		expiries: reg.Counter("overload.deadline_expiries"),
		stalls:   reg.Counter("overload.outbox_stalls"),
		inflight: reg.Gauge("overload.inflight"),
	}}
}

// Proto returns "rrp".
func (*RRP) Proto() string { return "rrp" }

// Listen starts a TCP accept loop on addr.
func (t *RRP) Listen(addr string, h Handler) (Server, error) {
	l, err := t.opts.listen(addr)
	if err != nil {
		return nil, fmt.Errorf("rrp listen: %w", err)
	}
	s := &rrpServer{l: l, inflight: t.opts.maxInflight(), ov: &t.ov}
	go s.acceptLoop(h)
	return s, nil
}

type rrpServer struct {
	l        net.Listener
	inflight int
	ov       *overload
	wg       sync.WaitGroup
	closed   sync.Once

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	down  bool
}

func (s *rrpServer) Endpoint() string { return JoinEndpoint("rrp", s.l.Addr().String()) }

func (s *rrpServer) Close() error {
	var err error
	s.closed.Do(func() {
		err = s.l.Close()
		s.mu.Lock()
		s.down = true
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return err
}

// track registers conn and counts it in s.wg; under s.mu, so the Add is
// ordered before Close's Wait.
func (s *rrpServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *rrpServer) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *rrpServer) acceptLoop(h Handler) {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			serveRRPConn(conn, h, s.inflight, s.ov)
		}()
	}
}

// serveRRPConn is one connection's read loop: decode each frame where
// it was read (its identifiers interned in the loop's own bounded
// string table), admit it (see admit) and hand the request to a parked
// worker of this connection, starting a new worker only while fewer
// than maxInflight exist.  Workers send their responses themselves — in
// completion order, not arrival order — so a slow call delays only
// itself; later requests on the same connection overtake it and their
// responses go out first.
func serveRRPConn(conn net.Conn, h Handler, maxInflight int, ov *overload) {
	fr := newFrameReader(conn)
	sc := &rrpServeConn{h: h, sem: make(chan struct{}, maxInflight), work: make(chan *wire.Request), ov: ov}
	sc.out = sender{conn: conn, outbox: make(chan outFrame, outboxDepth), stalls: ov.stalls,
		fail: func(error) { _ = conn.Close() }} // stops the read loop below
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sc.out.writeLoop()
	}()
	defer func() {
		close(sc.work)       // parked workers exit, busy ones after their call
		sc.wg.Wait()         // all workers have sent their responses
		close(sc.out.outbox) // then the writer drains and exits
		<-writerDone
	}()
	workers := 0
	var strs wire.StringTable // this loop's alone: the identifiers its frames repeat
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		req, err := strs.DecodeRequest(frame)
		if err != nil {
			return
		}
		slotWaitUs, ok := sc.admit(req)
		if !ok {
			continue // rejected: error response sent, no slot taken
		}
		// Deposit the measured slot wait for the dispatch chain's queue
		// management (server-local; never serialized).
		req.SlotWaitUs = slotWaitUs
		ov.inflight.Add(1)
		select {
		case sc.work <- req: // a parked worker took it, on its warm stack
		default:
			if workers < maxInflight {
				workers++
				sc.wg.Add(1)
				go sc.worker(req)
			} else {
				// Every worker exists and this request holds a slot, so
				// one of them has released its own and is about to park.
				sc.work <- req
			}
		}
	}
}

// rrpServeConn is the dispatch state of one served connection.
type rrpServeConn struct {
	out  sender
	ov   *overload
	h    Handler
	sem  chan struct{}      // dispatch slots: at most maxInflight handlers run
	work chan *wire.Request // unbuffered: a send lands only in a parked worker
	wg   sync.WaitGroup
}

// worker owns one request at a time: handler, response, slot release,
// then it parks for the next request and exits with the connection.
func (sc *rrpServeConn) worker(req *wire.Request) {
	defer sc.wg.Done()
	for ok := true; ok; req, ok = <-sc.work {
		sc.out.respond(sc.h(req))
		// Lower the gauge before freeing the slot: once the slot is
		// free the read loop may admit the next request and raise it.
		sc.ov.inflight.Add(-1)
		<-sc.sem
	}
}

// admit acquires a dispatch slot for req and returns the slot wait it
// measured (µs).  A deadline-free request blocks until a slot frees
// (the pre-deadline behaviour: backpressure on the connection's read
// loop); when it has to block, the wait is measured for the dispatch
// chain's queue-management interceptors — the uncontended fast path
// reads no clock.  A deadlined request waits at most its remaining
// budget: if the budget runs out first it is rejected right here — the
// admission check sits *before* the dispatch semaphore, so an expired
// call consumes no slot and no handler work (docs/CONCURRENCY.md §15)
// — and a slot granted in time is charged for the wait by decrementing
// the budget the call carries on.
func (sc *rrpServeConn) admit(req *wire.Request) (slotWaitUs uint64, ok bool) {
	sem, out, ov := sc.sem, &sc.out, sc.ov
	select {
	case sem <- struct{}{}: // fast path: free slot, no wait, no clock read
		return 0, true
	default:
	}
	if req.DeadlineUs == 0 {
		start := time.Now()
		sem <- struct{}{}
		return uint64(time.Since(start) / time.Microsecond), true
	}
	start := time.Now()
	timer := time.NewTimer(time.Duration(req.DeadlineUs) * time.Microsecond)
	select {
	case sem <- struct{}{}:
		timer.Stop()
		waited := uint64(time.Since(start) / time.Microsecond)
		if waited >= req.DeadlineUs {
			// Granted at the buzzer: the budget is gone, so hand the
			// slot back rather than burn it on a call whose caller has
			// already given up.
			<-sem
			ov.rejectExpired()
			out.respond(deadlineReject(req))
			return 0, false
		}
		req.DeadlineUs -= waited
		return waited, true
	case <-timer.C:
		ov.rejectExpired()
		out.respond(deadlineReject(req))
		return 0, false
	}
}

// rejectExpired counts one request refused at admission because its
// deadline ran out: it is both an admission reject and an expiry.
func (ov *overload) rejectExpired() {
	ov.rejects.Inc()
	ov.expiries.Inc()
}

// deadlineReject is the admission-rejection response: a transport-level
// error (not an application exception), so pool failover and callers
// see it the same way as any remote fault.
func deadlineReject(req *wire.Request) *wire.Response {
	return &wire.Response{ID: req.ID, Err: fmt.Sprintf(
		"deadline expired in admission queue (budget was %dµs)", req.DeadlineUs)}
}

// outFrame is a ready-to-send frame: frame aliases bufp's backing array
// (prefix already applied), and bufp is returned to the pool after the
// frame is written.
type outFrame struct {
	bufp  *[]byte
	frame []byte
}

// sender is the write side of one connection, the same on both ends.
// A sender that finds the write side idle and nothing queued writes its
// own frame under wmu; otherwise it queues to the writer goroutine,
// which batches whatever queued up behind a busy socket into one
// vectored write.  Either way a frame goes out whole, and frames of
// different senders were never ordered.  wmu is a leaf lock: nothing is
// acquired under it, and fail runs after it is released.
type sender struct {
	conn   net.Conn
	outbox chan outFrame
	dead   chan struct{}    // client: closed by fail; server: nil, its writer outlives errors
	fail   func(error)      // poisons the connection after a failed write
	stalls *metrics.Counter // server only: outbox backpressure

	wmu    sync.Mutex
	broken bool // under wmu: a write failed, later frames are dropped
}

// respond encodes resp into a pooled frame and sends it.
func (s *sender) respond(resp *wire.Response) {
	bufp := getFrameBuf()
	full := wire.AppendResponse((*bufp)[:frameHeadroom], resp)
	*bufp = full // adopt the (possibly grown) backing
	s.send(outFrame{bufp: bufp, frame: appendLengthPrefix(full)})
}

// send writes of through or queues it, counting — but still honouring —
// outbox backpressure when the writer has fallen outboxDepth frames
// behind.
func (s *sender) send(of outFrame) {
	if len(s.outbox) == 0 && s.wmu.TryLock() {
		var err error
		if !s.broken {
			_, err = s.conn.Write(of.frame)
			s.broken = err != nil
		}
		s.wmu.Unlock()
		putFrameBuf(of.bufp)
		if err != nil {
			s.fail(err)
		}
		return
	}
	select {
	case s.outbox <- of:
		return
	default:
		if s.stalls != nil {
			s.stalls.Inc()
		}
	}
	select {
	case s.outbox <- of:
	case <-s.dead:
		putFrameBuf(of.bufp)
	}
}

// writeLoop is the connection's writer goroutine: it takes the next
// queued frame, opportunistically drains whatever else queued up behind
// it, and sends the batch as one vectored write — under concurrent load
// many frames ride one syscall.  A failed write poisons the framing, so
// it fails the connection (every in-flight call learns immediately) and
// drops later frames; the loop ends with dead or a closed outbox.
func (s *sender) writeLoop() {
	recycle := make([]*[]byte, 0, maxWriteBatch)
	backing := make([][]byte, maxWriteBatch) // WriteTo nils entries; refilled each round
	var batch net.Buffers                    // escapes through WriteTo: one header for the loop's life
	for {
		var first outFrame
		var ok bool
		select {
		case first, ok = <-s.outbox:
			if !ok {
				return
			}
		case <-s.dead:
			return
		}
		n := 0
		backing[n] = first.frame
		n++
		recycle = append(recycle[:0], first.bufp)
	drain:
		for n < maxWriteBatch {
			select {
			case f, ok := <-s.outbox:
				if !ok {
					break drain
				}
				backing[n] = f.frame
				n++
				recycle = append(recycle, f.bufp)
			default:
				break drain
			}
		}
		var err error
		s.wmu.Lock()
		if !s.broken {
			batch = backing[:n]
			_, err = batch.WriteTo(s.conn)
			s.broken = err != nil
		}
		s.wmu.Unlock()
		for _, bufp := range recycle {
			putFrameBuf(bufp)
		}
		if err != nil {
			s.fail(err)
		}
	}
}

// Dial opens a persistent multiplexed connection to the endpoint.
func (t *RRP) Dial(endpoint string) (Client, error) {
	proto, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	if proto != "rrp" {
		return nil, fmt.Errorf("rrp transport cannot dial %q", endpoint)
	}
	conn, err := t.opts.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("rrp dial %s: %w", addr, err)
	}
	return newRRPClient(conn), nil
}

// newRRPClient starts the reader and writer goroutines of a client on
// conn; fail stops both.
func newRRPClient(conn net.Conn) *rrpClient {
	c := &rrpClient{conn: conn, pending: make(map[uint64]chan rrpResult)}
	c.out = sender{conn: conn, outbox: make(chan outFrame, outboxDepth), dead: make(chan struct{}), fail: c.fail}
	go c.out.writeLoop()
	go c.readLoop()
	return c
}

type rrpResult struct {
	resp *wire.Response
	err  error
}

// resultChans recycles the one-slot channels calls wait on.  A channel
// sees exactly one send per registration in a pending map — the reader
// or fail, whichever removes the entry — so it comes back empty.
var resultChans = sync.Pool{New: func() any { return make(chan rrpResult, 1) }}

// rrpClient multiplexes calls from any number of goroutines over one
// connection: each call registers a pooled channel in the pending map
// under a client-assigned wire ID, sends its encoded frame (see
// sender), and blocks on its channel until the reader goroutine
// delivers the matching response.  No lock is held across the round
// trip, so N callers put N requests in flight.
type rrpClient struct {
	conn net.Conn
	seq  atomic.Uint64
	out  sender // out.dead is closed by fail(): it unblocks outbox senders and the writer

	mu      sync.Mutex
	pending map[uint64]chan rrpResult
	err     error // terminal connection error, set once
}

func (c *rrpClient) Call(req *wire.Request) (*wire.Response, error) {
	// The wire ID is assigned by the client, not the caller: uniqueness
	// among in-flight calls on this connection is what makes correlation
	// sound, and callers are free to reuse request IDs.
	wireID := c.seq.Add(1)
	ch := resultChans.Get().(chan rrpResult)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		resultChans.Put(ch)
		return nil, fmt.Errorf("rrp call: %w", err)
	}
	c.pending[wireID] = ch
	c.mu.Unlock()

	wreq := *req // shallow copy: only the ID field is rewritten
	wreq.ID = wireID
	bufp := getFrameBuf()
	full := wire.AppendRequest((*bufp)[:frameHeadroom], &wreq)
	*bufp = full // adopt the (possibly grown) backing so the pool keeps it
	c.out.send(outFrame{bufp: bufp, frame: appendLengthPrefix(full)})

	// The response — or fail()'s error, which is also how a failed or
	// abandoned send ends: the entry was registered before fail ran.
	res := <-ch
	resultChans.Put(ch)
	if res.err != nil {
		return nil, fmt.Errorf("rrp receive: %w", res.err)
	}
	resp := res.resp
	resp.ID = req.ID // restore the caller's correlation ID
	return resp, nil
}

// readLoop is the client's single reader: it decodes response frames as
// they arrive — in whatever order the server completed them — and hands
// each to the waiting call.
func (c *rrpClient) readLoop() {
	fr := newFrameReader(c.conn)
	for {
		frame, err := fr.next()
		if err != nil {
			c.fail(err)
			return
		}
		resp, err := wire.DecodeResponseBytes(frame)
		if err != nil {
			c.fail(fmt.Errorf("rrp decode: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			// No call is waiting for this id.  Under injected or real
			// delivery duplication a request frame can reach the server
			// twice, producing two responses with one wire id: the first
			// matched, this one is a benign duplicate — as is a straggler
			// for a call fail() already abandoned.  Any id at or below the
			// issued sequence is such a duplicate and is dropped; an id
			// never issued means the stream really is corrupt.
			if resp.ID <= c.seq.Load() {
				continue
			}
			c.fail(fmt.Errorf("rrp: response id %d never issued", resp.ID))
			return
		}
		ch <- rrpResult{resp: resp}
	}
}

// fail marks the connection dead, stops the writer, and wakes every
// in-flight call with err.
func (c *rrpClient) fail(err error) {
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	abandoned := c.pending
	c.pending = make(map[uint64]chan rrpResult)
	failure := c.err
	c.mu.Unlock()
	if first {
		close(c.out.dead)
	}
	_ = c.conn.Close()
	for _, ch := range abandoned {
		ch <- rrpResult{err: failure}
	}
}

func (c *rrpClient) Close() error {
	c.fail(errors.New("client closed"))
	return nil
}

const (
	maxFrame = 64 << 20
	// rrpBufSize is a connection's read buffer: a frame up to this size
	// is decoded in place, and it holds a 64 KiB payload and its prefix.
	rrpBufSize = 128 << 10
	// maxKeptFrame caps a frame buffer kept for reuse, read side or
	// write side: a larger one is dropped after use, so one huge
	// payload does not pin memory.
	maxKeptFrame = 1 << 20
	// outboxDepth bounds frames queued for the writer goroutine; senders
	// block (backpressure) when the writer falls this far behind.
	outboxDepth = 512
	// maxWriteBatch caps how many queued frames one vectored write sends.
	maxWriteBatch = 64
	// frameHeadroom reserves room at the front of a pooled buffer for the
	// uvarint length prefix, so a frame is encoded and written in one
	// buffer with one Write — no header/payload concatenation copy.
	frameHeadroom = binary.MaxVarintLen64
)

// framePool recycles frame buffers across calls.  Buffers are handed out
// with frameHeadroom bytes of length-prefix space already reserved.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte {
	bufp := framePool.Get().(*[]byte)
	if cap(*bufp) < frameHeadroom {
		b := make([]byte, 0, 4096)
		*bufp = b
	}
	return bufp
}

func putFrameBuf(bufp *[]byte) {
	if cap(*bufp) > maxKeptFrame {
		return
	}
	*bufp = (*bufp)[:0]
	framePool.Put(bufp)
}

// appendLengthPrefix finishes a frame built in a headroom-reserved buffer:
// buf[:frameHeadroom] is reserved space and buf[frameHeadroom:] is the
// encoded payload.  The uvarint length is written into the tail of the
// reserved space and the ready-to-write frame (prefix + payload,
// contiguous) is returned.
func appendLengthPrefix(buf []byte) []byte {
	payloadLen := len(buf) - frameHeadroom
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(payloadLen))
	start := frameHeadroom - n
	copy(buf[start:], hdr[:n])
	return buf[start:]
}

// frameReader reads one connection's length-prefixed frames.  A frame
// that fits the read buffer is returned in place and discarded at the
// next call; a larger one is read into a buffer of the reader's own that
// grows only as the frame's bytes arrive, so a peer that announces a
// large frame and stalls holds little memory.
type frameReader struct {
	br    *bufio.Reader
	inBuf int    // length of the in-place frame last returned
	big   []byte // the buffer of frames larger than the read buffer
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, rrpBufSize)}
}

// next returns the next frame's payload, valid until the following
// call: decode it before reading again, into values that do not alias
// it.
func (fr *frameReader) next() ([]byte, error) {
	if fr.inBuf > 0 {
		_, _ = fr.br.Discard(fr.inBuf) // cannot fail: the bytes are buffered
		fr.inBuf = 0
	}
	if cap(fr.big) > maxKeptFrame {
		fr.big = nil
	}
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, errors.New("frame too large")
	}
	if int(n) <= fr.br.Size() {
		frame, err := fr.br.Peek(int(n))
		if err != nil {
			return nil, err
		}
		fr.inBuf = int(n)
		return frame, nil
	}
	// Grow by doubling, reading each step before the next allocation.
	frame := fr.big[:0]
	for len(frame) < int(n) {
		step := min(int(n)-len(frame), max(len(frame), rrpBufSize))
		frame = slices.Grow(frame, step)
		if _, err := io.ReadFull(fr.br, frame[len(frame):len(frame)+step]); err != nil {
			return nil, err
		}
		frame = frame[:len(frame)+step]
	}
	fr.big = frame
	return frame, nil
}
