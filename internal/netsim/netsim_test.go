package netsim

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func pipePair(t *testing.T, p Profile) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return p.Conn(a), b
}

// tcpPair connects two loopback TCP endpoints, wrapping each end with its
// own profile.
func tcpPair(t *testing.T, pa, pb Profile) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := <-accepted
	if !ok {
		a.Close()
		t.Fatal("accept failed")
	}
	wa, wb := pa.Conn(a), pb.Conn(b)
	t.Cleanup(func() { wa.Close(); wb.Close() })
	return wa, wb
}

// drain reads c until it fails.
func drain(c net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// TestSerialRoundTripIsPunctual pins the delay a delayed link publishes:
// with 100 µs each way, an idle process's serial ping-pong must cost
// about 200 µs, not the millisecond per leg a Go timer rounds up to when
// every P is idle.
func TestSerialRoundTripIsPunctual(t *testing.T) {
	p := Profile{Latency: 100 * time.Microsecond}
	a, b := tcpPair(t, p, p)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := io.ReadFull(b, buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	rtts := make([]time.Duration, 200)
	buf := make([]byte, 1)
	for i := range rtts {
		start := time.Now()
		if _, err := a.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			t.Fatal(err)
		}
		rtts[i] = time.Since(start)
	}
	slices.Sort(rtts)
	med := rtts[len(rtts)/2]
	t.Logf("median round trip %v, p90 %v", med, rtts[len(rtts)*9/10])
	if med < 2*p.Latency || med >= 600*time.Microsecond {
		t.Fatalf("median round trip %v over two %v legs; want within [%v, 600µs)", med, p.Latency, 2*p.Latency)
	}
}

// TestWarmWriteAllocatesNothing: a small frame on a warm LAN link is
// copied into the link's buffer, with no per-frame heap copy or record.
func TestWarmWriteAllocatesNothing(t *testing.T) {
	a, b := tcpPair(t, LAN, Profile{})
	go drain(b)
	frame := make([]byte, 64)
	for range 3 {
		for range 200 {
			if _, err := a.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond) // let the burst drain, so both buffers grow
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = a.Write(frame) }); n != 0 {
		t.Fatalf("warm 64-byte LAN write: %v allocs, want 0", n)
	}
}

// TestFramesArriveInOrder: jitter never reorders frames, and a duplicated
// frame arrives twice back to back.
func TestFramesArriveInOrder(t *testing.T) {
	const frames = 1000
	for _, tc := range []struct {
		name   string
		faults *Faults
		copies int
	}{
		{"jitter", nil, 1},
		{"jitter+dup", &Faults{Seed: 3, DupPerMille: 1000}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tcpPair(t, Profile{Jitter: 200 * time.Microsecond, Seed: 5, Faults: tc.faults}, Profile{})
			go func() {
				var f [4]byte
				for i := range frames {
					binary.BigEndian.PutUint32(f[:], uint32(i))
					if _, err := a.Write(f[:]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			got := make([]byte, 4*frames*tc.copies)
			if _, err := io.ReadFull(b, got); err != nil {
				t.Fatal(err)
			}
			for k := range frames * tc.copies {
				if n := binary.BigEndian.Uint32(got[4*k:]); n != uint32(k/tc.copies) {
					t.Fatalf("frame %d is #%d, want #%d", k, n, k/tc.copies)
				}
			}
		})
	}
}

// TestSmallWritesDoNotBlock: frames inside one bandwidth × delay never
// hold the sender, however many writers share the link.  The latency is
// stretched past LAN so "long before one latency" survives the race
// detector.
func TestSmallWritesDoNotBlock(t *testing.T) {
	p := LAN
	p.Latency = 50 * time.Millisecond
	a, b := tcpPair(t, p, Profile{})
	const writers, each, size = 8, 100, 8
	arrived := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(b, make([]byte, writers*each*size))
		arrived <- err
	}()
	var wg sync.WaitGroup
	start := time.Now()
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame := make([]byte, size)
			for range each {
				if _, err := a.Write(frame); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := time.Since(start); got >= p.Latency/2 {
		t.Fatalf("%d small writes held their senders for %v; latency is %v", writers*each, got, p.Latency)
	}
	if err := <-arrived; err != nil {
		t.Fatal(err)
	}
}

// TestLargeWriteAppliesBackPressure: a 64 KiB frame at 1 Gb/s serialises
// for 524 µs, of which everything beyond the 100 µs in flight holds the
// sender.
func TestLargeWriteAppliesBackPressure(t *testing.T) {
	a, b := tcpPair(t, LAN, Profile{})
	go drain(b)
	start := time.Now()
	if _, err := a.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 300*time.Microsecond {
		t.Fatalf("64 KiB LAN write returned after %v; want >= 300µs of back-pressure", got)
	}
}

// TestClosedLinksReleaseEverything: every delivery goroutine exits with
// its link and returns the descriptor it waited on.
func TestClosedLinksReleaseEverything(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	goroutines, fds0 := runtime.NumGoroutine(), fds()
	p := Profile{Latency: time.Millisecond}
	var links []net.Conn
	for i := range 500 {
		a, b := net.Pipe()
		w := p.Conn(a)
		if _, err := w.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			go drain(b) // half the links are mid-delivery at close
		}
		links = append(links, w, b)
	}
	for _, c := range links {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines || (runtime.GOOS == "linux" && fds() > fds0) {
		if time.Now().After(deadline) {
			t.Fatalf("after closing 500 links: %d goroutines (started with %d), %d fds (started with %d)",
				runtime.NumGoroutine(), goroutines, fds(), fds0)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestZeroProfilePassThrough(t *testing.T) {
	var p Profile
	a, _ := net.Pipe()
	if p.Conn(a) != a {
		t.Fatal("zero profile should not wrap")
	}
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	defer l.Close()
	if p.Listener(l) != l {
		t.Fatal("zero profile should not wrap listener")
	}
}

func TestLatencyDelaysDeliveryNotSender(t *testing.T) {
	// Generous latency so the sender/delivery bounds tolerate CI
	// scheduling pauses: the assertions only need "well under one
	// latency" and "well under serialised (3x) delivery".
	const lat = 50 * time.Millisecond
	p := Profile{Latency: lat}
	a, b := pipePair(t, p)
	arrived := make(chan time.Time, 1)
	go func() {
		buf := make([]byte, 16)
		got := 0
		for got < 3 {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			got += n
		}
		arrived <- time.Now()
	}()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := a.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Propagation delay must not block the sender: three back-to-back
	// writes return well before even one latency elapses.
	if got := time.Since(start); got >= lat {
		t.Fatalf("3 writes blocked the sender for %v; propagation should be async", got)
	}
	all := <-arrived
	if got := all.Sub(start); got < lat {
		t.Fatalf("payload arrived after %v; latency not applied", got)
	}
	// Pipelining: frames travel concurrently, so all three arrive about
	// one latency after sending, not one latency each.
	if got := all.Sub(start); got >= 3*lat {
		t.Fatalf("3 pipelined writes took %v to deliver; latency serialised", got)
	}
}

func TestBandwidthDelayScalesWithSize(t *testing.T) {
	// 1 MB/s: a 10 KB write should take ≥ ~80ms of serialisation delay.
	p := Profile{BandwidthBps: 1_000_000}
	a, b := pipePair(t, p)
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	defer close(done)
	payload := make([]byte, 10_000)
	start := time.Now()
	if _, err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 70*time.Millisecond {
		t.Fatalf("10KB at 1MB/s took only %v", got)
	}
}

func TestFailureInjection(t *testing.T) {
	p := Profile{FailAfterWrites: 2}
	a, b := pipePair(t, p)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if _, err := a.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	_, err := a.Write([]byte("boom"))
	var fe *FailedError
	if !errors.As(err, &fe) || fe.Writes != 2 {
		t.Fatalf("want FailedError after 2 writes, got %v", err)
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) time.Duration {
		p := Profile{Jitter: 2 * time.Millisecond, Seed: seed}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		wrapped := p.Conn(a)
		go func() {
			buf := make([]byte, 16)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		start := time.Now()
		for i := 0; i < 5; i++ {
			_, _ = wrapped.Write([]byte("j"))
		}
		return time.Since(start)
	}
	// Same seed twice: similar totals (within scheduling noise); the
	// point is it runs and produces bounded delay.
	d := mk(42)
	if d > 50*time.Millisecond {
		t.Fatalf("jitter too large: %v", d)
	}
}

func TestListenerWraps(t *testing.T) {
	p := Profile{Latency: time.Millisecond}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := p.Listener(inner)
	defer l.Close()
	go func() {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Write([]byte("hi"))
		buf := make([]byte, 2)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		_, _ = c.Write([]byte("ok")) // ack, unwrapped side: instant
	}()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	// The wrapped write is delayed in flight: the peer's ack cannot come
	// back before one latency has passed.
	start := time.Now()
	if _, err := conn.Write([]byte("yo")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("accepted conn not wrapped")
	}
}

func TestDialerWraps(t *testing.T) {
	p := Profile{Latency: time.Millisecond}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		_, _ = c.Write([]byte("pong")) // ack, unwrapped side: instant
	}()
	dial := p.Dialer(func(network, addr string) (net.Conn, error) {
		return net.Dial(network, addr)
	})
	c, err := dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("dialled conn not wrapped")
	}
}

// faultProfile builds a profile whose only behaviour is the fault
// schedule (no latency/bandwidth shaping), seeded deterministically.
func faultProfile(f Faults) Profile {
	return Profile{Seed: 1, Faults: &f}
}

func TestFaultDuplicationDeliversFrameTwice(t *testing.T) {
	// 100% duplication: every written frame arrives twice, back to back.
	a, b := pipePair(t, faultProfile(Faults{Seed: 7, DupPerMille: 1000}))
	go a.Write([]byte("xyz"))
	buf := make([]byte, 6)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "xyzxyz" {
		t.Fatalf("got %q want the frame twice", buf)
	}
}

func TestFaultKillFailsWriteAndUnblocksReader(t *testing.T) {
	a, b := pipePair(t, faultProfile(Faults{Seed: 7, KillPerMille: 1000}))
	readErr := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 4))
		readErr <- err
	}()
	_, err := a.Write([]byte("doomed"))
	var fe *FailedError
	if !errors.As(err, &fe) {
		t.Fatalf("want injected FailedError, got %v", err)
	}
	// The frame was lost and the link is dead: the peer's read unblocks
	// with an error instead of hanging on a frame that never comes.
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("peer read returned data from a killed link")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer read still blocked after kill")
	}
	// Subsequent writes fail fast.
	if _, err := a.Write([]byte("after")); err == nil {
		t.Fatal("write on killed connection succeeded")
	}
}

func TestFaultDropSwallowsFrameThenTearsDown(t *testing.T) {
	a, b := pipePair(t, faultProfile(Faults{Seed: 7, DropPerMille: 1000}))
	if _, err := a.Write([]byte("lost")); err != nil {
		t.Fatalf("drop must report success to the writer, got %v", err)
	}
	// The frame never arrives; instead the link is torn down shortly
	// after (a stream cannot skip one frame and keep its framing).
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := b.Read(make([]byte, 8))
	if err == nil || n > 0 {
		t.Fatalf("dropped frame delivered: n=%d err=%v", n, err)
	}
}

func TestFaultFirstSafeWritesExemption(t *testing.T) {
	a, b := pipePair(t, faultProfile(Faults{Seed: 7, KillPerMille: 1000, FirstSafeWrites: 3}))
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := a.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d inside the safe prefix failed: %v", i, err)
		}
	}
	if _, err := a.Write([]byte("boom")); err == nil {
		t.Fatal("write past the safe prefix survived a 100% kill schedule")
	}
}

// TestFaultScheduleIsDeterministic replays the same seed over the same
// per-connection write sequence and expects identical outcomes — the
// property the E12 chaos experiment's fixed seed matrix relies on.
func TestFaultScheduleIsDeterministic(t *testing.T) {
	outcomes := func() []bool {
		// Reset decorrelation is impossible (connSeq is process-wide),
		// so determinism is asserted per connection stream: one conn,
		// fixed seed folded with its ordinal, many writes.
		f := Faults{Seed: 99, KillPerMille: 0, DropPerMille: 0, DupPerMille: 500}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		w := &conn{Conn: a, p: Profile{Seed: 1, Faults: &f}}
		w.frng = splitmix(f.Seed) | 1
		go io.Copy(io.Discard, b)
		var out []bool
		buf := []byte("f")
		for i := 0; i < 64; i++ {
			before := w.frng
			w.Write(buf)
			// A changed stream with a dup decision shows up as the next
			// state's low bit pattern; record the roll outcome directly.
			out = append(out, splitmix(before)%1000 < 500)
		}
		return out
	}
	first, second := outcomes(), outcomes()
	dups := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("fault schedule diverged at write %d", i)
		}
		if first[i] {
			dups++
		}
	}
	if dups == 0 || dups == len(first) {
		t.Fatalf("degenerate schedule: %d/%d dups", dups, len(first))
	}
}
