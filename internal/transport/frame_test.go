package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/wire"
)

// encodeFrame returns a frame as the senders write it: prefix and payload.
func encodeFrame(payload []byte) []byte {
	return appendLengthPrefix(append(make([]byte, frameHeadroom), payload...))
}

// chunks delivers one chunk per Read, as a peer whose writes each
// arrive alone.
type chunks [][]byte

func (c *chunks) Read(p []byte) (int, error) {
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	if (*c)[0] = (*c)[0][n:]; len((*c)[0]) == 0 {
		*c = (*c)[1:]
	}
	return n, nil
}

// fill is a string of n copies of c.
func fill(c byte, n int) string { return strings.Repeat(string(c), n) }

// TestDecodedNeverAliasesReadBuffer reads frame A, decodes it, then
// reads frame B of the same length into the same bytes of the read
// buffer: every string decoded from A must still read A's bytes.  The
// requests go through both request decoders (the server's interning one
// and the plain one), the responses through the client's.
func TestDecodedNeverAliasesReadBuffer(t *testing.T) {
	long := 3 * 1024 // past the intern table's length cap: copied, not shared
	request := func(c byte) []byte {
		return wire.AppendRequest(nil, &wire.Request{ID: 9, Op: wire.OpInvoke,
			GUID: fill(c, 16), Class: fill(c, 5), Method: fill(c, 6), Caller: fill(c, 20),
			Endpoint: fill(c, 12),
			Token:    &wire.CallToken{Caller: fill(c, 21), Seq: 4},
			Args:     []wire.Value{{Kind: wire.KString, Str: fill(c, long)}, {Kind: wire.KString, Str: fill(c, 3)}}})
	}
	response := func(c byte) []byte {
		return wire.AppendResponse(nil, &wire.Response{ID: 9,
			Result:  wire.Value{Kind: wire.KString, Str: fill(c, long)},
			ExClass: fill(c, 7), ExMsg: fill(c, 8), Err: fill(c, 9),
			Redirect: &wire.RemoteRef{GUID: fill(c, 16), Endpoint: fill(c, 14), Target: fill(c, 4)}})
	}
	// twoFrames returns the first frame's payload decoded by decode and
	// reads the second over it.
	twoFrames := func(t *testing.T, a, b []byte, decode func([]byte) (any, error)) any {
		t.Helper()
		fr := newFrameReader(&chunks{encodeFrame(a), encodeFrame(b)})
		frameA, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := decode(frameA)
		if err != nil {
			t.Fatal(err)
		}
		if frameB, err := fr.next(); err != nil || !bytes.Equal(frameB, b) {
			t.Fatalf("frame B: %v", err)
		}
		if !bytes.Equal(frameA, b) {
			t.Fatal("frame B did not land in frame A's bytes; the test checks nothing")
		}
		return decoded
	}
	stringsOf := func(req *wire.Request) []string {
		return []string{req.GUID, req.Class, req.Method, req.Caller, req.Endpoint,
			req.Token.Caller, req.Args[0].Str, req.Args[1].Str}
	}

	var strs wire.StringTable
	for name, decode := range map[string]func([]byte) (any, error){
		"interned": func(b []byte) (any, error) { return strs.DecodeRequest(b) },
		"plain":    func(b []byte) (any, error) { return wire.DecodeRequestBytes(b) },
	} {
		want, err := wire.DecodeRequestBytes(request('a'))
		if err != nil {
			t.Fatal(err)
		}
		got := twoFrames(t, request('a'), request('b'), decode).(*wire.Request)
		if g, w := stringsOf(got), stringsOf(want); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s request: a decoded string changed when the next frame was read: %.60q", name, g)
		}
	}

	got := twoFrames(t, response('a'), response('b'), func(b []byte) (any, error) {
		return wire.DecodeResponseBytes(b)
	}).(*wire.Response)
	want, err := wire.DecodeResponseBytes(response('a'))
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Str != want.Result.Str || got.ExClass != want.ExClass || got.ExMsg != want.ExMsg ||
		got.Err != want.Err || *got.Redirect != *want.Redirect {
		t.Errorf("response: a decoded string changed when the next frame was read: %.60q", got.Result.Str)
	}
}

// stallReader delivers data, then reports on stalled and blocks until
// release is closed: a peer that sent part of a frame and went quiet.
type stallReader struct {
	data             []byte
	stalled, release chan struct{}
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	r.stalled <- struct{}{}
	<-r.release
	return 0, io.EOF
}

// TestStalledFrameHoldsLittle announces a 60 MiB frame on each of four
// readers and sends one byte of it: the readers, stalled mid-frame,
// must hold at most 1 MiB each, not the announced size.
func TestStalledFrameHoldsLittle(t *testing.T) {
	const readers, announced = 4, 60 << 20
	data := append(binary.AppendUvarint(nil, announced), 'x')
	stalled, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, readers)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range readers {
		go func() {
			_, err := newFrameReader(&stallReader{data: data, stalled: stalled, release: release}).next()
			errs <- err
		}()
	}
	for range readers {
		<-stalled
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	close(release)
	for range readers {
		if err := <-errs; !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("a frame cut short read %v, want %v", err, io.ErrUnexpectedEOF)
		}
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > readers<<20 {
		t.Fatalf("%d readers stalled one byte into a %d MiB frame hold %d KiB", readers, announced>>20, grown>>10)
	}
}

// TestReadFrameAllocs pins the in-place read: a warm read plus decode of
// a small request frame allocates what the decode alone does.
func TestReadFrameAllocs(t *testing.T) {
	payload := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpInvoke,
		GUID: "0123456789abcdef", Method: "add",
		Args: []wire.Value{{Kind: wire.KInt, Int: 1}, {Kind: wire.KInt, Int: 2}}})
	var strs wire.StringTable
	decode := func(b []byte) {
		if _, err := strs.DecodeRequest(b); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&cycle{b: encodeFrame(payload)})
	read := func() {
		b, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		decode(b)
	}
	read() // fills the read buffer and the string table
	decodeOnly := testing.AllocsPerRun(1000, func() { decode(payload) })
	if allocs := testing.AllocsPerRun(1000, read); allocs > decodeOnly {
		t.Fatalf("a warm read and decode allocates %.1f times; the decode alone %.1f", allocs, decodeOnly)
	}
}

// chopConn hands its reader the stream in pieces of at most size()
// bytes, as a peer writing pieces of that size delivers it.
type chopConn struct {
	net.Conn
	r    *bufio.Reader
	size func() int
}

func chop(c net.Conn, size func() int) net.Conn {
	return &chopConn{Conn: c, r: bufio.NewReader(c), size: size}
}

func (c *chopConn) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.size())]) }

// pattern is n bytes that differ from any shift of themselves by less
// than 26, so a frame read at the wrong offset cannot match.
func pattern(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return string(b)
}

// sizedString returns pattern(l) for the l that makes frameLen exactly
// n; its caller checks the length where an l may not exist.
func sizedString(n int, frameLen func(s string) int) string {
	s := pattern(max(n-frameLen(""), 0))
	for range 3 {
		if d := n - frameLen(s); d != 0 {
			s = pattern(max(len(s)+d, 0))
		}
	}
	return s
}

// TestFramingBoundaries sends frames of the read buffer's size -1, +0
// and +1 bytes and a 3 MiB one, each among small frames in flight on the
// same connection, through a client's readLoop and a server's read loop
// joined by a pipe.  Each side reads the stream in 1-byte pieces, then
// in pieces of random size.  A request names the length of the response
// it wants; both carry patterned strings checked on arrival.
func TestFramingBoundaries(t *testing.T) {
	// request asks for a response frame of respSize bytes.
	request := func(s string, respSize int) *wire.Request {
		return &wire.Request{Op: wire.OpInvoke, Method: "m",
			Args: []wire.Value{{Kind: wire.KString, Str: s}, {Kind: wire.KInt, Int: int64(respSize)}}}
	}
	// The client numbers its calls from 1; every call here stays below
	// 128, so every wire ID is one byte, as in this sizing.
	reqLen := func(respSize int) func(s string) int {
		return func(s string) int {
			req := request(s, respSize)
			req.ID = 1
			return len(wire.AppendRequest(nil, req))
		}
	}
	respLen := func(s string) int {
		return len(wire.AppendResponse(nil, &wire.Response{ID: 1, Result: wire.Value{Kind: wire.KString, Str: s}}))
	}
	handler := func(req *wire.Request) *wire.Response {
		if s := req.Args[0].Str; s != pattern(len(s)) {
			return &wire.Response{ID: req.ID, Err: fmt.Sprintf("request string of %d bytes corrupted", len(s))}
		}
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString,
			Str: sizedString(int(req.Args[1].Int), respLen)}}
	}
	rng := rand.New(rand.NewPCG(50, 1))
	var rngMu sync.Mutex
	randomSize := func() int {
		rngMu.Lock()
		defer rngMu.Unlock()
		return 1 + rng.IntN(1<<rng.IntN(18))
	}
	for _, mode := range []struct {
		name string
		size func() int
	}{
		{"1-byte", func() int { return 1 }},
		{"random", randomSize},
	} {
		t.Run(mode.name, func(t *testing.T) {
			a, b := net.Pipe()
			served := make(chan struct{})
			go func() {
				defer close(served)
				serveRRPConn(chop(b, mode.size), handler, 8, &NewRRP(Options{}).ov)
			}()
			c := newRRPClient(chop(a, mode.size))
			defer func() {
				c.Close()
				<-served
				b.Close()
			}()
			call := func(reqStr string, respSize int) error {
				resp, err := c.Call(request(reqStr, respSize))
				switch {
				case err != nil:
					return err
				case resp.Err != "":
					return errors.New(resp.Err)
				case respLen(resp.Result.Str) != respSize || resp.Result.Str != pattern(len(resp.Result.Str)):
					return fmt.Errorf("response of %d bytes corrupted", respLen(resp.Result.Str))
				}
				return nil
			}
			for _, size := range []int{rrpBufSize - 1, rrpBufSize, rrpBufSize + 1, 3 << 20} {
				big := sizedString(size, reqLen(size))
				if reqLen(size)(big) != size {
					t.Fatalf("no request string makes a %d-byte frame", size)
				}
				var wg sync.WaitGroup
				errs := make(chan error, 4)
				for i := range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if i == 0 {
							errs <- call(big, size)
						} else {
							errs <- call(pattern(40+i), 30+i)
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("frames of %d bytes: %v", size, err)
					}
				}
			}
		})
	}
}

// TestOversizedPrefixKillsConnection: a length prefix above maxFrame
// ends the connection on either side, before any of the frame is read.
func TestOversizedPrefixKillsConnection(t *testing.T) {
	prefix := binary.AppendUvarint(nil, maxFrame+1)

	srv, err := NewRRP(Options{}).Listen("", func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, addr, _ := SplitEndpoint(srv.Endpoint())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(prefix); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after an oversized prefix the server's connection read %d bytes, %v; want it closed", n, err)
	}

	a, b := net.Pipe()
	defer b.Close()
	go func() {
		if _, err := newFrameReader(b).next(); err == nil {
			_, _ = b.Write(prefix)
		}
	}()
	c := newRRPClient(a)
	defer c.Close()
	if _, err := c.Call(&wire.Request{Op: wire.OpPing}); err == nil || !strings.Contains(err.Error(), "frame too large") {
		t.Fatalf("a response with an oversized prefix: %v", err)
	}
}
