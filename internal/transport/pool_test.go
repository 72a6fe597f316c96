package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafda/internal/wire"
)

// fakeTransport hands out controllable clients so pool tests can count
// dials, kill shards and count Close calls exactly.
type fakeTransport struct {
	mu        sync.Mutex
	clients   []*fakeClient
	failDials int // the next failDials dials fail
}

func (f *fakeTransport) Proto() string { return "fake" }

func (f *fakeTransport) Listen(addr string, h Handler) (Server, error) {
	return nil, fmt.Errorf("fake transport does not listen")
}

func (f *fakeTransport) Dial(endpoint string) (Client, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failDials > 0 {
		f.failDials--
		return nil, fmt.Errorf("fake dial refused")
	}
	c := &fakeClient{}
	f.clients = append(f.clients, c)
	return c, nil
}

func (f *fakeTransport) dialled() []*fakeClient {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fakeClient(nil), f.clients...)
}

type fakeClient struct {
	dead    atomic.Bool
	calls   atomic.Int64
	closes  atomic.Int64
	attempt atomic.Uint32 // the token attempt of the last delivered call
}

func (c *fakeClient) Call(req *wire.Request) (*wire.Response, error) {
	if c.dead.Load() {
		return nil, fmt.Errorf("fake connection dead")
	}
	c.calls.Add(1)
	if req.Token != nil {
		c.attempt.Store(req.Token.Attempt)
	}
	return &wire.Response{ID: req.ID}, nil
}

func (c *fakeClient) Close() error {
	c.closes.Add(1)
	return nil
}

func fakeCache(t *testing.T, shards int) (*ClientCache, *fakeTransport) {
	t.Helper()
	ft := &fakeTransport{}
	return NewClientCachePool(NewRegistry(ft), shards), ft
}

func TestPoolSameKeySameShard(t *testing.T) {
	cc, ft := fakeCache(t, 8)
	defer cc.Close()
	const ep = "fake://peer"
	for i := 0; i < 50; i++ {
		if _, err := cc.CallKey(ep, "object-guid-1", &wire.Request{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clients := ft.dialled()
	if len(clients) != 1 {
		t.Fatalf("one affinity key dialled %d connections, want 1", len(clients))
	}
	if got := clients[0].calls.Load(); got != 50 {
		t.Fatalf("affinity shard served %d calls, want 50", got)
	}
	// Distinct keys must spread: with 8 shards and 64 keys, more than
	// one shard has to light up (FNV would have to collide all 64).
	for i := 0; i < 64; i++ {
		if _, err := cc.CallKey(ep, fmt.Sprintf("guid-%d", i), &wire.Request{ID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ft.dialled()); n < 2 {
		t.Fatalf("64 distinct keys stayed on %d shard(s)", n)
	}
}

func TestPoolShard0PinnedForGossipPath(t *testing.T) {
	cc, ft := fakeCache(t, 4)
	defer cc.Close()
	const ep = "fake://peer"
	// Call (the gossip path) must pin one socket: the pool's shard 0.
	for i := 0; i < 20; i++ {
		if _, err := cc.Call(ep, &wire.Request{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ft.dialled()); n != 1 {
		t.Fatalf("shard-0 path dialled %d connections, want 1", n)
	}
	p, err := cc.Pool(ep)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := p.client(0)
	if err != nil {
		t.Fatal(err)
	}
	if c0 != Client(ft.dialled()[0]) {
		t.Fatal("shard 0 is not the connection Call uses")
	}
}

func TestPoolFailoverRetriesOnSurvivingShards(t *testing.T) {
	cc, ft := fakeCache(t, 3)
	defer cc.Close()
	const ep = "fake://peer"
	// Light up all three shards.
	for i := 0; i < 3; i++ {
		if _, err := cc.CallKey(ep, "", &wire.Request{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := ft.dialled()
	if len(before) != 3 {
		t.Fatalf("dialled %d, want 3", len(before))
	}
	// Kill one shard: calls that land on it must fail over to a
	// survivor, the dead connection must be evicted (closed once), and
	// the shard must redial on later use.
	before[1].dead.Store(true)
	for i := 0; i < 12; i++ {
		if _, err := cc.CallKey(ep, "", &wire.Request{ID: uint64(i)}); err != nil {
			t.Fatalf("call after shard kill: %v", err)
		}
	}
	if got := before[1].closes.Load(); got != 1 {
		t.Fatalf("dead shard closed %d times, want 1 (eviction)", got)
	}
	if n := len(ft.dialled()); n != 4 {
		t.Fatalf("dialled %d connections, want 4 (one redial of the killed shard)", n)
	}
}

func TestPoolAllShardsDownSurfacesError(t *testing.T) {
	cc, ft := fakeCache(t, 2)
	defer cc.Close()
	const ep = "fake://peer"
	for i := 0; i < 2; i++ {
		if _, err := cc.CallKey(ep, "", &wire.Request{ID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range ft.dialled() {
		c.dead.Store(true)
	}
	// The retry loop is bounded by the shard count: with every shard
	// dead it must exhaust and return the error, not spin redialling.
	if _, err := cc.CallKey(ep, "", &wire.Request{ID: 2}); err == nil {
		t.Fatal("call with every shard dead succeeded")
	}
}

func TestClientCacheCloseDrainsEveryShardExactlyOnce(t *testing.T) {
	cc, ft := fakeCache(t, 3)
	const ep = "fake://peer"
	for i := 0; i < 3; i++ {
		if _, err := cc.CallKey(ep, "", &wire.Request{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	clients := ft.dialled()
	if len(clients) != 3 {
		t.Fatalf("dialled %d, want 3", len(clients))
	}
	for i, c := range clients {
		if got := c.closes.Load(); got != 1 {
			t.Fatalf("shard %d closed %d times, want exactly 1", i, got)
		}
	}
	// Idempotent: a second Close must not close anything again.
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if got := c.closes.Load(); got != 1 {
			t.Fatalf("after double Close, shard %d closed %d times", i, got)
		}
	}
	if _, err := cc.Pool(ep); err == nil {
		t.Fatal("Pool after Close succeeded")
	}
	if _, err := cc.CallKey(ep, "k", &wire.Request{ID: 9}); err == nil {
		t.Fatal("CallKey after Close succeeded")
	}
}

func TestPoolCloseRacingDialClosesExactlyOnce(t *testing.T) {
	// Hammer the install/Close race: every dialled connection must end
	// up closed exactly once whether the sweep or the installer wins.
	for round := 0; round < 50; round++ {
		ft := &fakeTransport{}
		cc := NewClientCachePool(NewRegistry(ft), 4)
		const ep = "fake://peer"
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, _ = cc.CallKey(ep, fmt.Sprintf("k%d", g), &wire.Request{ID: 1})
			}(g)
		}
		_ = cc.Close()
		wg.Wait()
		_ = cc.Close()
		for i, c := range ft.dialled() {
			if got := c.closes.Load(); got != 1 {
				t.Fatalf("round %d: connection %d closed %d times, want 1", round, i, got)
			}
		}
	}
}

// shardKeyFor finds an affinity key the pool maps to shard want.
func shardKeyFor(p *Pool, want int) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if p.shardIndex(k) == want {
			return k
		}
	}
}

// TestPoolShardKilledMidFlightRRP is the end-to-end form over the real
// RRP transport: calls are in flight on one shard when its socket dies.
// Every in-flight call on the broken connection must fail fast, retry
// on a surviving shard and succeed; the dead client's pending map must
// drain (no leaked waiters); and the shard must redial afterwards.
func TestPoolShardKilledMidFlightRRP(t *testing.T) {
	tr := NewRRP(Options{})
	srv, err := tr.Listen("", func(req *wire.Request) *wire.Response {
		if req.Method == "slow" {
			time.Sleep(20 * time.Millisecond)
		}
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 7}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cc := NewClientCachePool(NewRegistry(tr), 2)
	defer cc.Close()
	p, err := cc.Pool(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	key := shardKeyFor(p, 0)
	c0, err := p.client(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.client(1); err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := cc.CallKey(srv.Endpoint(), key, &wire.Request{ID: uint64(g*100 + i), Method: "slow"})
				if err != nil {
					errs <- fmt.Errorf("caller %d: %w", g, err)
					return
				}
				if resp.Result.Int != 7 {
					errs <- fmt.Errorf("caller %d: bad result %+v", g, resp)
					return
				}
			}
		}(g)
	}
	// Kill shard 0's socket while calls are parked in the slow handler.
	time.Sleep(10 * time.Millisecond)
	rc := c0.(*rrpClient)
	_ = rc.conn.Close()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("call did not survive shard death: %v", err)
	default:
	}

	// No pending-map leak on the dead client: fail() must have drained
	// every waiter when the connection died.
	rc.mu.Lock()
	leaked := len(rc.pending)
	rc.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("dead shard leaked %d pending waiters", leaked)
	}

	// The killed shard redials on next use.
	if _, err := cc.CallKey(srv.Endpoint(), key, &wire.Request{ID: 999, Method: "quick"}); err != nil {
		t.Fatalf("post-kill call on the killed shard's key: %v", err)
	}
	cur, err := p.client(0)
	if err != nil {
		t.Fatal(err)
	}
	if cur == c0 {
		t.Fatal("shard 0 still holds the dead connection")
	}
}

func TestDefaultPoolShardsBounds(t *testing.T) {
	n := DefaultPoolShards()
	if n < 1 || n > MaxDefaultPoolShards {
		t.Fatalf("DefaultPoolShards() = %d, want within [1,%d]", n, MaxDefaultPoolShards)
	}
}

// TestPoolTokenedRetryPersists pins the exactly-once failover regime:
// an untokened call gets one pass over the shards (legacy at-least-once:
// fail fast rather than risk double execution), while a tokened call
// keeps retrying across rounds — each round redialling evicted slots —
// and bumps the token's attempt ordinal per retry.
func TestPoolTokenedRetryPersists(t *testing.T) {
	const ep = "fake://peer"

	// Untokened: kill both shards; the single pass finds only the dead
	// connections and surfaces the error.
	cc, ft := fakeCache(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := cc.CallKey(ep, "", &wire.Request{ID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range ft.dialled() {
		c.dead.Store(true)
	}
	if _, err := cc.CallKey(ep, "", &wire.Request{ID: 2}); err == nil {
		t.Fatal("untokened call retried past one pass")
	}
	cc.Close()

	// Tokened: same double kill, but the next round redials the evicted
	// slots and the call succeeds.
	cc, ft = fakeCache(t, 2)
	defer cc.Close()
	for i := 0; i < 2; i++ {
		if _, err := cc.CallKey(ep, "", &wire.Request{ID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range ft.dialled() {
		c.dead.Store(true)
	}
	req := &wire.Request{ID: 3, Token: &wire.CallToken{Caller: "n!1", Seq: 9}}
	if _, err := cc.CallKey(ep, "", req); err != nil {
		t.Fatalf("tokened call did not survive an all-shard kill: %v", err)
	}
	if req.Token.Attempt == 0 {
		t.Fatal("retries did not bump the token attempt ordinal")
	}
	if req.Token.Seq != 9 || req.Token.Caller != "n!1" {
		t.Fatalf("retry mutated token identity: %+v", req.Token)
	}
}

// TestPoolSendAfterFailedDialIsFirstAttempt: a failed dial sends
// nothing, so the send after it is the call's first delivery and must
// carry attempt 0 — only a send after a failed send is a retry.
func TestPoolSendAfterFailedDialIsFirstAttempt(t *testing.T) {
	cc, ft := fakeCache(t, 2)
	defer cc.Close()
	ft.failDials = 1
	req := &wire.Request{ID: 1, Token: &wire.CallToken{Caller: "n!1", Seq: 1}}
	if _, err := cc.CallKey("fake://peer", "", req); err != nil {
		t.Fatal(err)
	}
	clients := ft.dialled()
	if len(clients) != 1 || clients[0].calls.Load() != 1 {
		t.Fatalf("want one delivery on the second shard, got %d connections", len(clients))
	}
	if got := clients[0].attempt.Load(); got != 0 || req.Token.Attempt != 0 {
		t.Fatalf("first delivery stamped attempt %d (token %d), want 0", got, req.Token.Attempt)
	}
}
