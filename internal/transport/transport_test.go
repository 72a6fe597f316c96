package transport

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/netsim"
	"rafda/internal/wire"
)

func echoHandler(req *wire.Request) *wire.Response {
	return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KString, Str: req.Method}}
}

func allTransports(opts Options) []Transport {
	return []Transport{NewInproc(), NewRRP(opts), NewSOAP(opts), NewJSON(opts)}
}

func TestRoundTripAllTransports(t *testing.T) {
	for _, tr := range allTransports(Options{}) {
		tr := tr
		t.Run(tr.Proto(), func(t *testing.T) {
			srv, err := tr.Listen("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if !strings.HasPrefix(srv.Endpoint(), tr.Proto()+"://") {
				t.Fatalf("endpoint %q", srv.Endpoint())
			}
			client, err := tr.Dial(srv.Endpoint())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			for i := uint64(1); i <= 5; i++ {
				resp, err := client.Call(&wire.Request{ID: i, Op: wire.OpInvoke, Method: "hello"})
				if err != nil {
					t.Fatal(err)
				}
				if resp.ID != i || resp.Result.Str != "hello" {
					t.Fatalf("bad response %+v", resp)
				}
			}
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	for _, tr := range allTransports(Options{}) {
		tr := tr
		t.Run(tr.Proto(), func(t *testing.T) {
			srv, err := tr.Listen("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := tr.Dial(srv.Endpoint())
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					for i := 0; i < 30; i++ {
						resp, err := c.Call(&wire.Request{ID: uint64(i), Method: "x"})
						if err != nil || resp.Result.Str != "x" {
							t.Errorf("call: %v %v", resp, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestDialWrongProto(t *testing.T) {
	rrp := NewRRP(Options{})
	if _, err := rrp.Dial("soap://127.0.0.1:1"); err == nil {
		t.Fatal("cross-proto dial accepted")
	}
	if _, err := rrp.Dial("garbage"); err == nil {
		t.Fatal("garbage endpoint accepted")
	}
}

func TestInprocIsolation(t *testing.T) {
	ip := NewInproc()
	s1, err := ip.Listen("alpha", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Listen("alpha", echoHandler); err == nil {
		t.Fatal("duplicate inproc address accepted")
	}
	c, err := ip.Dial("inproc://alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&wire.Request{ID: 1, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if _, err := c.Call(&wire.Request{ID: 2, Method: "m"}); err == nil {
		t.Fatal("closed inproc endpoint still reachable")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	tr := NewRRP(Options{})
	block := make(chan struct{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		if req.Method == "block" {
			<-block
		}
		return &wire.Response{ID: req.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&wire.Request{ID: 1}); err != nil {
		t.Fatal(err)
	}
	close(block)
	srv.Close()
	if _, err := c.Call(&wire.Request{ID: 2}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestRegistry(t *testing.T) {
	reg := Default(Options{})
	for _, proto := range []string{"inproc", "rrp", "soap", "json"} {
		if tr, err := reg.Get(proto); err != nil || tr.Proto() != proto {
			t.Fatalf("protocol %s not registered: %v", proto, err)
		}
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Fatal("unknown proto accepted")
	}
	tr, err := reg.Get("rrp")
	if err != nil || tr.Proto() != "rrp" {
		t.Fatal("registry lookup broken")
	}
	srv, err := tr.Listen("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := reg.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(&wire.Request{ID: 3, Method: "ok"}); err != nil || resp.Result.Str != "ok" {
		t.Fatalf("registry dial: %v %v", resp, err)
	}
}

func TestSplitJoinEndpoint(t *testing.T) {
	p, a, err := SplitEndpoint("rrp://1.2.3.4:99")
	if err != nil || p != "rrp" || a != "1.2.3.4:99" {
		t.Fatalf("%q %q %v", p, a, err)
	}
	if _, _, err := SplitEndpoint("nope"); err == nil {
		t.Fatal("bad endpoint accepted")
	}
	if JoinEndpoint("x", "y") != "x://y" {
		t.Fatal("join broken")
	}
}

func TestNetsimLatencyApplied(t *testing.T) {
	slow := Options{Profile: netsim.Profile{Latency: 3 * time.Millisecond}}
	tr := NewRRP(slow)
	srv, err := tr.Listen("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := c.Call(&wire.Request{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Each call crosses the link twice (request + response), each write
	// delayed ≥3ms.
	if elapsed := time.Since(start); elapsed < calls*2*3*time.Millisecond {
		t.Fatalf("latency not applied: %v for %d calls", elapsed, calls)
	}
}

func TestNetsimFailureInjection(t *testing.T) {
	opts := Options{Profile: netsim.Profile{FailAfterWrites: 3}}
	tr := NewRRP(opts)
	srv, err := tr.Listen("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	failed := false
	for i := 0; i < 10; i++ {
		if _, err := c.Call(&wire.Request{ID: uint64(i)}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("injected failure never surfaced")
	}
}

func TestClientCacheSharesConnections(t *testing.T) {
	reg := NewRegistry(NewInproc(), NewRRP(Options{}))
	srv, err := NewRRP(Options{}).Listen("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cc := NewClientCachePool(reg, 0)
	defer cc.Close()
	var wg sync.WaitGroup
	clients := make([]Client, 8)
	for g := range clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := cc.Pool(srv.Endpoint())
			if err != nil {
				t.Error(err)
				return
			}
			c, err := p.client(0)
			if err != nil {
				t.Error(err)
				return
			}
			clients[g] = c
		}(g)
	}
	wg.Wait()
	for _, c := range clients[1:] {
		if c != clients[0] {
			t.Fatal("cache handed out distinct clients for one endpoint")
		}
	}
	resp, err := cc.Call(srv.Endpoint(), &wire.Request{ID: 9})
	if err != nil || resp.ID != 9 {
		t.Fatalf("call through cache: %v %+v", err, resp)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Pool(srv.Endpoint()); err == nil {
		t.Fatal("Pool after Close succeeded")
	}
}
