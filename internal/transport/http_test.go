package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"rafda/internal/wire"
)

// cycle reads b over and over, forever.
type cycle struct {
	b   []byte
	off int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], c.b[c.off:])
		n += k
		c.off = (c.off + k) % len(c.b)
	}
	return n, nil
}

// TestHTTPBodyCapped streams a request body of maxFrame+1 bytes from a
// generating reader to a SOAP server: XML comments, which the decoder
// reads and discards one at a time while it looks for the envelope, so
// neither end holds the body.  The server must stop at the cap — the
// same one rrp puts on a frame, shared by both HTTP carriers — answer
// 413, and never run the handler.
func TestHTTPBodyCapped(t *testing.T) {
	var handled atomic.Int32
	srv, err := NewSOAP(Options{}).Listen("", func(req *wire.Request) *wire.Response {
		handled.Add(1)
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, addr, err := SplitEndpoint(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}

	// The body is written from its own goroutine and the response read
	// here: the server answers before the client has finished sending,
	// then closes, which ends the write with an error nobody needs.
	// Closing the connection stops the writer if the test fails first.
	comment := "<!--" + strings.Repeat("x", 4089) + "-->"
	sent := make(chan struct{})
	defer func() { conn.Close(); <-sent }()
	go func() {
		defer close(sent)
		fmt.Fprintf(conn, "POST /rafda HTTP/1.1\r\nHost: %s\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n", addr, maxFrame+1)
		_, _ = io.Copy(conn, io.LimitReader(&cycle{b: []byte(comment)}, maxFrame+1))
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body answered %s, want 413", maxFrame+1, resp.Status)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on an oversize body", n)
	}
}
