package transport

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"rafda/internal/wire"
)

// Pool is a sharded connection pool to one endpoint: up to Size
// multiplexed connections dialled lazily, with calls distributed across
// shards by a cheap affinity hash (callers pass an object GUID; the
// empty key round-robins).  One multiplexed connection pipelines any
// number of in-flight calls, but every frame still funnels through that
// connection's one write lock and one reader goroutine — on many-core
// clients that pair is the throughput ceiling, which widening the pool
// lifts.  Affinity keeps all of one
// object's calls on one socket, so per-object request order on the wire
// matches issue order exactly as it did with a single connection.
//
// Shard 0 is the canonical connection: ClientCache.Call pins it, so the
// cluster plane's gossip exchanges and RTT pings always ride the same
// socket and membership timing is not smeared across shards.
//
// # Thread safety
//
// A Pool is lock-free: each shard slot is an atomic pointer, dialled on
// first use without holding any lock (two racing first uses both dial
// and the loser's connection is closed — the same contract ClientCache
// has always had).  A shard whose connection fails is evicted by CAS
// and closed; the call retries on the surviving shards and the next
// call through the empty slot redials.  Close is idempotent and closes
// every live shard exactly once, including an install that races it.
type Pool struct {
	reg      *Registry
	endpoint string
	shards   []poolShard
	rr       atomic.Uint32
	closed   atomic.Bool
	// onFailover, when set, observes every failed delivery attempt in
	// CallKey's failover loop (see FailoverFunc).  Installed at pool
	// creation from the owning ClientCache; immutable afterwards.
	onFailover FailoverFunc
}

// FailoverFunc observes one failed delivery attempt inside a pool's
// shard-failover loop: the peer endpoint, the shard and attempt
// ordinals, the trace context the request rides under (zero when
// untraced) and the error.  Called on the calling goroutine with no
// pool locks held; implementations must not block (the node runtime
// uses it to emit failover spans into the lock-free flight recorder).
type FailoverFunc func(endpoint string, shard, attempt int, tctx wire.TraceContext, err error)

type poolShard struct {
	c atomic.Pointer[shardConn]
}

// shardConn wraps a Client so shard slots can CAS on identity: eviction
// must remove exactly the connection that failed, never a replacement a
// concurrent caller already installed.
type shardConn struct{ c Client }

// MaxDefaultPoolShards caps the GOMAXPROCS-derived default pool width;
// beyond ~8 sockets per peer the writer pairs stop being the bottleneck
// and file descriptors start to matter.
const MaxDefaultPoolShards = 8

// DefaultPoolShards returns the default per-endpoint pool width: one
// connection per scheduler processor, capped at MaxDefaultPoolShards.
// A 1-core process keeps the historical one-connection-per-peer shape.
func DefaultPoolShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > MaxDefaultPoolShards {
		n = MaxDefaultPoolShards
	}
	return n
}

// newPool builds an undialled pool of size shards.
func newPool(reg *Registry, endpoint string, size int, onFailover FailoverFunc) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{reg: reg, endpoint: endpoint, shards: make([]poolShard, size),
		onFailover: onFailover}
}

// Endpoint returns the pooled endpoint.
func (p *Pool) Endpoint() string { return p.endpoint }

// ShardID names one shard's socket for diagnostics ("rrp://h:p#3").
// Telemetry must never key on this form: telemetry.PeerKey folds it
// back to the peer endpoint so per-peer rollups aggregate across
// shards instead of fragmenting per socket.
func (p *Pool) ShardID(i int) string { return fmt.Sprintf("%s#%d", p.endpoint, i) }

// shardIndex maps an affinity key to a shard (FNV-1a); the empty key
// round-robins.
func (p *Pool) shardIndex(key string) int {
	if len(p.shards) == 1 {
		return 0
	}
	if key == "" {
		// Modulo in uint32 space: on 32-bit hosts int(wrapped counter)
		// goes negative and a signed % would index out of range.
		return int((p.rr.Add(1) - 1) % uint32(len(p.shards)))
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(p.shards)))
}

// client returns shard i's live connection, dialling on first use.  No
// lock is held across the dial; two racing first uses both dial and the
// loser's connection is closed.
func (p *Pool) client(i int) (Client, error) {
	if sc := p.shards[i].c.Load(); sc != nil {
		return sc.c, nil
	}
	if p.closed.Load() {
		return nil, fmt.Errorf("pool %s: closed", p.endpoint)
	}
	c, err := p.reg.Dial(p.endpoint)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", p.ShardID(i), err)
	}
	sc := &shardConn{c: c}
	if !p.shards[i].c.CompareAndSwap(nil, sc) {
		_ = c.Close()
		if cur := p.shards[i].c.Load(); cur != nil {
			return cur.c, nil
		}
		// The winner was already evicted again; the caller's retry loop
		// (or next call) redials.
		return nil, fmt.Errorf("%s: connection lost during dial race", p.ShardID(i))
	}
	if p.closed.Load() {
		// Close raced the install.  Withdraw the slot ourselves: if
		// Close's sweep already emptied it the CAS fails (the sweep
		// closed the connection), otherwise we close it here — either
		// way exactly one Close per connection.
		if p.shards[i].c.CompareAndSwap(sc, nil) {
			_ = c.Close()
		}
		return nil, fmt.Errorf("pool %s: closed", p.endpoint)
	}
	return c, nil
}

// evict drops a failed connection from its shard, by identity, so the
// next call through the shard redials.  A replacement installed by a
// concurrent caller is left alone.
func (p *Pool) evict(i int, c Client) {
	if sc := p.shards[i].c.Load(); sc != nil && sc.c == c {
		if p.shards[i].c.CompareAndSwap(sc, nil) {
			_ = c.Close()
		}
	}
}

// Call performs one request on a round-robin shard.
func (p *Pool) Call(req *wire.Request) (*wire.Response, error) {
	return p.CallKey("", req)
}

// TokenedRetryRounds is how many passes over the shard set a *tokened*
// request makes before giving up (each attempt redials its slot, so one
// pass already survives every connection dying once).  Untokened
// requests keep the single pass: without a dedup token a retry risks
// double execution, so the untokened senders — the control plane's
// probes and rafdac — fail fast instead.
const TokenedRetryRounds = 4

// CallKey performs one request on the shard the affinity key hashes to
// ("" round-robins).  A shard whose connection has died is evicted and
// the call moves to the next shard — each attempt redialling an empty
// slot — so one broken socket costs only the calls in flight on it, not
// the peer.
//
// Retry regime: a call that failed mid-flight may have executed at the
// server before the connection died, so the retry is a potential
// duplicate delivery.  Tokened requests (wire.Request.Token) make the
// failover safe — the server's dedup window recognises the token and
// replays the recorded response instead of executing twice
// (docs/CONCURRENCY.md §10) — so they retry persistently, for
// TokenedRetryRounds passes over the pool, and each send after a failed
// send bumps the token's attempt ordinal (a failed dial sends nothing,
// so it makes no retry).  Untokened requests (control-plane probes,
// rafdac) get one pass, the at-least-once regime.  With every attempt
// exhausted the last error is returned and surfaces as
// sys.RemoteException.
func (p *Pool) CallKey(key string, req *wire.Request) (*wire.Response, error) {
	start := p.shardIndex(key)
	attempts := len(p.shards)
	if req.Token != nil {
		attempts *= TokenedRetryRounds
	}
	var lastErr error
	retry := false // a send has failed, so the next send is a retry
	for attempt := 0; attempt < attempts; attempt++ {
		i := (start + attempt) % len(p.shards)
		c, err := p.client(i)
		if err != nil {
			lastErr = err
			if p.onFailover != nil {
				p.onFailover(p.endpoint, i, attempt, req.Trace, err)
			}
			continue
		}
		if retry && req.Token != nil {
			req.Token.Attempt++
		}
		resp, err := c.Call(req)
		if err == nil {
			return resp, nil
		}
		retry = true
		lastErr = fmt.Errorf("%s: %w", p.ShardID(i), err)
		p.evict(i, c)
		if p.onFailover != nil {
			p.onFailover(p.endpoint, i, attempt, req.Trace, lastErr)
		}
	}
	return nil, lastErr
}

// Close closes every live shard exactly once and rejects further use.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	var firstErr error
	for i := range p.shards {
		if sc := p.shards[i].c.Swap(nil); sc != nil {
			if err := sc.c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
