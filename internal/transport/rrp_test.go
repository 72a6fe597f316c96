package transport

import (
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"rafda/internal/netsim"
	"rafda/internal/wire"
)

// TestRRPConcurrentSharedClient drives one shared client from many
// goroutines with a mix of fast and slow handlers, forcing responses to
// complete out of arrival order, and checks every caller gets its own
// answer.  Run under -race in CI.
func TestRRPConcurrentSharedClient(t *testing.T) {
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		if strings.HasPrefix(req.Method, "slow") {
			time.Sleep(2 * time.Millisecond)
		}
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: req.Method}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines = 16
	const callsEach = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				kind := "fast"
				if (g+i)%3 == 0 {
					kind = "slow"
				}
				method := fmt.Sprintf("%s-g%d-c%d", kind, g, i)
				id := uint64(g*callsEach + i)
				resp, err := c.Call(&wire.Request{ID: id, Op: wire.OpInvoke, Method: method})
				if err != nil {
					t.Errorf("call %s: %v", method, err)
					return
				}
				if resp.ID != id || resp.Result.Str != method {
					t.Errorf("cross-delivered response: sent %s/%d, got %s/%d",
						method, id, resp.Result.Str, resp.ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// goid returns the calling goroutine's id, read off its stack header —
// a test-only way to tell warm workers from a goroutine per request.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestRRPOutOfOrderResponses proves the multiplexing is real — a fast
// call issued after a deliberately stuck slow call completes first, on
// the same connection — and that the server runs it on slot-owned warm
// workers: 10 000 serial calls then a 64-wide burst at MaxInflight 8
// never run more than 8 handlers at once, on no more than 8 goroutines
// in total (one per request at the parent of this test).
func TestRRPOutOfOrderResponses(t *testing.T) {
	const maxInflight = 8
	slowEntered := make(chan struct{})
	release := make(chan struct{})
	var running, peak atomic.Int64
	var mu sync.Mutex
	workers := make(map[string]bool)
	tr := NewRRP(Options{MaxInflight: maxInflight})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		cur := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		id := goid()
		mu.Lock()
		workers[id] = true
		mu.Unlock()
		switch req.Method {
		case "slow":
			close(slowEntered)
			<-release
		case "burst":
			time.Sleep(200 * time.Microsecond) // long enough for the burst to pile up
		}
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: req.Method}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(&wire.Request{Method: "warm"}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		if _, err := c.Call(&wire.Request{ID: uint64(i), Method: "serial"}); err != nil {
			t.Fatalf("serial call %d: %v", i, err)
		}
	}
	// Serial calls need one worker; a second appears when a request
	// arrives before the first has parked again.
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("serial phase grew the process from %d to %d goroutines", before, after)
	}
	mu.Lock()
	serialWorkers := len(workers)
	mu.Unlock()
	if serialWorkers > 3 {
		t.Fatalf("10000 serial calls ran on %d goroutines; want a warm worker, not one per request", serialWorkers)
	}

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{ID: 1, Method: "slow"})
		slowDone <- err
	}()
	<-slowEntered // the slow request is parked inside the handler

	// Later calls on the same connection must overtake it: a 64-wide
	// burst through the 7 slots the stuck handler leaves.
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Call(&wire.Request{ID: 2, Method: "burst"})
			if err != nil {
				t.Errorf("burst call blocked behind slow call: %v", err)
			} else if resp.Result.Str != "burst" {
				t.Errorf("bad response %+v", resp)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before release (err=%v); ordering broken", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
	if p := peak.Load(); p > maxInflight || p < 2 {
		t.Fatalf("peak concurrent handlers %d; want 2..%d", p, maxInflight)
	}
	if len(workers) > maxInflight {
		t.Fatalf("the calls ran on %d goroutines; want at most %d workers", len(workers), maxInflight)
	}
}

// TestRRPWriteFailurePoisonsConnection kills connections under the
// senders' feet: with a 5 % chance that any frame write — a caller's or
// a worker's own write-through, or the writer goroutine's batch — kills
// the link, 16 callers on one client must all get an error promptly
// (none hangs), every answer delivered before that must be the caller's
// own (a frame is never interleaved with another: the terminal error is
// the link's, not the decoder's), and the server's workers must all
// have exited when Close returns.
func TestRRPWriteFailurePoisonsConnection(t *testing.T) {
	before := runtime.NumGoroutine()
	var answered atomic.Int64
	for round := uint64(0); round < 20; round++ {
		tr := NewRRP(Options{MaxInflight: 4, Profile: netsim.Profile{
			Faults: &netsim.Faults{Seed: round, KillPerMille: 50, FirstSafeWrites: 8}}})
		srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
			return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: req.Method}}
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := tr.Dial(srv.Endpoint())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Frames of very different lengths: a torn or interleaved
				// one cannot decode to the caller's own method.
				method := strings.Repeat(string(rune('a'+g)), 1+g*257)
				for {
					resp, err := c.Call(&wire.Request{ID: uint64(g), Method: method})
					if err == nil && resp.Result.Str == method {
						answered.Add(1)
						continue
					}
					if err == nil {
						t.Errorf("round %d caller %d: someone else's answer (%d bytes)", round, g, len(resp.Result.Str))
					} else if m := err.Error(); strings.Contains(m, "decode") ||
						strings.Contains(m, "never issued") || strings.Contains(m, "too large") {
						t.Errorf("round %d caller %d: framing broke: %v", round, g, err)
					}
					return
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: callers still hung 10s after the link was due to die", round)
		}
		if _, err := c.Call(&wire.Request{Method: "after"}); err == nil {
			t.Fatalf("round %d: call on a poisoned connection succeeded", round)
		}
		c.Close()
		srv.Close() // waits for the connection's workers and writer
	}
	if answered.Load() < 20 {
		t.Fatalf("only %d calls were answered before the links died; the test exercised nothing", answered.Load())
	}
	// The client's reader and writer exit on their own; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after 20 killed connections", before, after)
	}
}

// TestRRPRoundTripAllocs pins the carriers: a bare loopback round trip
// allocates what decoding the request (1: its arguments ride inline and
// its identifiers are interned per connection), the response (1) and the
// handler's own response (1) cost — no result channel, dispatch closure
// or vectored-write header per call.
func TestRRPRoundTripAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				t.Skip("sync.Pool drops a quarter of its items under the race detector")
			}
		}
	}
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 3}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := &wire.Request{ID: 1, Op: wire.OpInvoke, GUID: "0123456789abcdef", Method: "add",
		Args: []wire.Value{{Kind: wire.KInt, Int: 1}, {Kind: wire.KInt, Int: 2}}}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := c.Call(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a bare rrp round trip allocates %.1f times; want at most 3", allocs)
	}
}

// TestRRPInternTableBounded sends 10 000 distinct GUIDs over one
// connection.  The server's string table shares a repeated GUID before
// the flood and after it: a full table is dropped, so it follows the
// current working set, and a GUID first seen after the flood is shared
// from its second delivery on.  Every request still decodes its own
// GUID.  (The table's size bound is pinned in package wire, where the
// table is reachable.)
func TestRRPInternTableBounded(t *testing.T) {
	var mu sync.Mutex
	var kept []string // holds every decoded GUID, so no address is reused
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		mu.Lock()
		kept = append(kept, req.GUID)
		mu.Unlock()
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt,
			Int: int64(uintptr(unsafe.Pointer(unsafe.StringData(req.GUID))))}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	storage := func(guid string) int64 {
		t.Helper()
		resp, err := c.Call(&wire.Request{Op: wire.OpInvoke, GUID: guid, Method: "m"})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Int
	}
	hot := storage("hot#1")
	if storage("hot#1") != hot {
		t.Fatal("a repeated GUID was copied, not shared")
	}
	for i := range 10000 {
		storage(fmt.Sprintf("flood#%d", i))
	}
	if storage("hot#1") != storage("hot#1") {
		t.Fatal("after the flood a repeated GUID was copied, not shared")
	}
	if storage("late#1") != storage("late#1") {
		t.Fatal("after the flood a new GUID was copied on every delivery")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, g := range kept[2 : 2+10000] { // after the two hot#1 calls
		if want := fmt.Sprintf("flood#%d", i); g != want {
			t.Fatalf("request %d decoded GUID %q, want %q", i, g, want)
		}
	}
}

// TestRRPPipeliningOverlapsLatency checks that N concurrent calls over
// one connection overlap their handler time instead of queueing: 32
// calls against a 5ms handler must take far less than 32×5ms.
func TestRRPPipeliningOverlapsLatency(t *testing.T) {
	var inFlight, peak atomic.Int64
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return &wire.Response{ID: req.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 32
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Call(&wire.Request{ID: uint64(i)}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > calls*5*time.Millisecond/2 {
		t.Fatalf("%d concurrent calls took %v; transport is serialising", calls, elapsed)
	}
	if peak.Load() < 2 {
		t.Fatalf("server never ran handlers concurrently (peak %d)", peak.Load())
	}
}

// TestRRPDuplicateCallerIDs verifies correlation is by client-assigned
// wire ID, not the caller's request ID: concurrent calls reusing the
// same request ID each get their own response, stamped with their ID.
func TestRRPDuplicateCallerIDs(t *testing.T) {
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		if req.Method == "odd" {
			time.Sleep(time.Millisecond)
		}
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: req.Method}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			method := "even"
			if i%2 == 1 {
				method = "odd"
			}
			resp, err := c.Call(&wire.Request{ID: 7, Method: method})
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			if resp.ID != 7 || resp.Result.Str != method {
				t.Errorf("want %s/7, got %s/%d", method, resp.Result.Str, resp.ID)
			}
		}(i)
	}
	wg.Wait()
}

// TestRRPCloseFailsPendingCalls checks a closed client immediately fails
// both its in-flight and subsequent calls.
func TestRRPCloseFailsPendingCalls(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		if req.Method == "stuck" {
			close(entered)
			<-release
		}
		return &wire.Response{ID: req.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release) // let the parked handler finish so Close can drain
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}

	pending := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{ID: 1, Method: "stuck"})
		pending <- err
	}()
	<-entered
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pending:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not unblocked by Close")
	}
	if _, err := c.Call(&wire.Request{ID: 2}); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

// TestRRPLargePayloadRoundTrip exercises frame-buffer growth and reuse
// beyond the pool's initial size, concurrently.
func TestRRPLargePayloadRoundTrip(t *testing.T) {
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Result: req.Args[0]}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for _, size := range []int{0, 1, 4 << 10, 256 << 10, 2 << 20} {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			payload := strings.Repeat("x", size)
			resp, err := c.Call(&wire.Request{
				ID:   uint64(size),
				Args: []wire.Value{{Kind: wire.KString, Str: payload}},
			})
			if err != nil {
				t.Errorf("size %d: %v", size, err)
				return
			}
			if resp.Result.Str != payload {
				t.Errorf("size %d: payload corrupted (got %d bytes)", size, len(resp.Result.Str))
			}
		}(size)
	}
	wg.Wait()
}

// rawRRPServer accepts one connection and serves each request frame
// through respond, which returns the frames to write back — letting
// tests inject duplicate or unsolicited responses below the transport's
// own server implementation.
func rawRRPServer(t *testing.T, respond func(req *wire.Request) []*wire.Response) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := newFrameReader(conn)
		for {
			frame, err := fr.next()
			if err != nil {
				return
			}
			req, err := wire.DecodeRequestBytes(frame)
			if err != nil {
				return
			}
			for _, resp := range respond(req) {
				full := wire.AppendResponse(make([]byte, frameHeadroom, 256), resp)
				if _, err := conn.Write(appendLengthPrefix(full)); err != nil {
					return
				}
			}
		}
	}()
	return JoinEndpoint("rrp", l.Addr().String())
}

// TestRRPDuplicateResponseDropped pins the reader's duplicate
// tolerance: injected frame duplication can make the server answer one
// wire id twice, and the second copy must be dropped — not poison the
// connection — while a response id that was never issued still does.
func TestRRPDuplicateResponseDropped(t *testing.T) {
	ep := rawRRPServer(t, func(req *wire.Request) []*wire.Response {
		// Answer every request twice: the duplicate-delivery shape.
		r := &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 5}}
		return []*wire.Response{r, r}
	})
	c, err := NewRRP(Options{}).Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Call(&wire.Request{ID: uint64(100 + i), Op: wire.OpPing})
		if err != nil {
			t.Fatalf("call %d after duplicate responses: %v", i, err)
		}
		if resp.Result.Int != 5 {
			t.Fatalf("call %d bad result %+v", i, resp)
		}
	}
}

func TestRRPNeverIssuedResponsePoisons(t *testing.T) {
	ep := rawRRPServer(t, func(req *wire.Request) []*wire.Response {
		return []*wire.Response{{ID: req.ID + 1000}} // an id no call issued
	})
	c, err := NewRRP(Options{}).Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&wire.Request{ID: 1, Op: wire.OpPing}); err == nil {
		t.Fatal("call matched a never-issued response id")
	}
}
