// Package transport carries wire messages between nodes.  Four protocols
// are provided, mirroring the paper's proxy families: inproc (collocated
// calls), rrp (the binary RAFDA Remote Protocol over TCP, playing RMI's
// role), soap (XML over HTTP) and json (JSON over HTTP).  Proxies differ
// only in which transport their invocations traverse.
//
// # Thread safety
//
// Every type in this package is safe for concurrent use.  A Client's
// Call may be issued from any number of goroutines: rrp multiplexes
// them over one connection (client-assigned wire IDs correlate
// out-of-order responses; a sender writes its own frame when the write
// side is idle and queues to the writer goroutine otherwise), soap/json
// ride net/http's pooled connections, and inproc invokes the handler
// directly.  No implementation holds a lock across
// a network round trip.  A node additionally pools rrp connections per
// endpoint (ClientCache/Pool): calls are distributed across up to
// GOMAXPROCS multiplexed connections by object-GUID affinity, lifting
// the single writer/reader-pair ceiling on many-core clients while
// keeping each object's calls on one socket.  Servers dispatch inbound
// requests concurrently (rrp on at most Options.MaxInflight warm
// workers per connection), so the Handler — the node runtime — must be
// concurrency-safe; the contract it follows is
// docs/CONCURRENCY.md.  Connection failures poison only their
// connection: every in-flight call on it fails immediately, the pool
// evicts the broken shard (retrying the call on the survivors), and
// later calls redial.
package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"rafda/internal/metrics"
	"rafda/internal/netsim"
	"rafda/internal/wire"
)

// Handler serves incoming requests (implemented by the node runtime).
type Handler func(*wire.Request) *wire.Response

// Server is a listening endpoint.
type Server interface {
	// Endpoint returns the full dialable endpoint, e.g. "rrp://1.2.3.4:70".
	Endpoint() string
	Close() error
}

// Client is a connection to a remote endpoint.
//
// Call is safe for concurrent use by any number of goroutines.  Each
// implementation either multiplexes concurrent calls over one connection
// (rrp correlates out-of-order responses by request ID), pools
// connections (soap/json ride net/http keep-alive pools), or is a direct
// function call (inproc); none holds a lock across a network round trip.
type Client interface {
	Call(*wire.Request) (*wire.Response, error)
	Close() error
}

// Transport is one wire protocol.
type Transport interface {
	// Proto returns the scheme, e.g. "rrp".
	Proto() string
	// Listen starts serving on addr ("host:port", empty port allowed).
	Listen(addr string, h Handler) (Server, error)
	// Dial connects to an endpoint previously returned by a Server.
	Dial(endpoint string) (Client, error)
}

// Options tune socket-based transports; the zero value uses the real
// network directly.
type Options struct {
	// Profile injects simulated network conditions on both accepted and
	// dialled connections.
	Profile netsim.Profile
	// MaxInflight bounds the number of requests a server dispatches
	// concurrently per connection (rrp); 0 means DefaultMaxInflight.
	MaxInflight int
	// Metrics is the registry the serve plane's overload instruments
	// come from: "overload.admission_rejects",
	// "overload.deadline_expiries" (admission-queue expiries),
	// "overload.inflight" (the dispatch-slot gauge) and
	// "overload.outbox_stalls".  The node shares its own registry here
	// so one snapshot covers transport and dispatch; nil records into
	// unregistered instruments.
	Metrics *metrics.Registry
}

// DefaultMaxInflight is the per-connection concurrent-dispatch bound used
// when Options.MaxInflight is zero.
const DefaultMaxInflight = 256

func (o Options) maxInflight() int {
	if o.MaxInflight > 0 {
		return o.MaxInflight
	}
	return DefaultMaxInflight
}

func (o Options) listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return o.Profile.Listener(l), nil
}

func (o Options) dial(addr string) (net.Conn, error) {
	return o.Profile.Dialer(func(network, a string) (net.Conn, error) {
		return net.Dial(network, a)
	})("tcp", addr)
}

// SplitEndpoint splits "proto://addr" into its parts.
func SplitEndpoint(endpoint string) (proto, addr string, err error) {
	i := strings.Index(endpoint, "://")
	if i <= 0 {
		return "", "", fmt.Errorf("bad endpoint %q (want proto://addr)", endpoint)
	}
	return endpoint[:i], endpoint[i+3:], nil
}

// JoinEndpoint builds "proto://addr".
func JoinEndpoint(proto, addr string) string { return proto + "://" + addr }

// Registry maps protocol names to transports.
type Registry struct {
	byProto map[string]Transport
}

// NewRegistry builds a registry over the given transports.
func NewRegistry(ts ...Transport) *Registry {
	r := &Registry{byProto: make(map[string]Transport, len(ts))}
	for _, t := range ts {
		r.byProto[t.Proto()] = t
	}
	return r
}

// Default returns a registry with all four protocols under the given
// options (inproc ignores them).
func Default(opts Options) *Registry {
	return NewRegistry(
		NewInproc(),
		NewRRP(opts),
		NewSOAP(opts),
		NewJSON(opts),
	)
}

// Get returns the transport for proto.
func (r *Registry) Get(proto string) (Transport, error) {
	t, ok := r.byProto[proto]
	if !ok {
		return nil, fmt.Errorf("unknown transport protocol %q", proto)
	}
	return t, nil
}

// Dial resolves the endpoint's protocol and dials it.
func (r *Registry) Dial(endpoint string) (Client, error) {
	proto, _, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	t, err := r.Get(proto)
	if err != nil {
		return nil, err
	}
	return t.Dial(endpoint)
}

// ClientCache caches one connection Pool per endpoint, each pool's
// shards dialled lazily on first use.  It is the connection-sharing
// point of a node: the invocation runtime and the cluster coordination
// plane hold the same cache, so gossip traffic piggybacks on the
// multiplexed connections invocations already keep open instead of
// dialling a second socket per peer — pinned to shard 0, so membership
// RTT pings always measure the same socket.  Safe for concurrent use;
// no lock is ever held across a dial (pools are created empty under the
// cache lock; shards dial lock-free, see Pool).
type ClientCache struct {
	reg    *Registry
	shards int

	mu         sync.Mutex
	pools      map[string]*Pool
	closed     bool
	onFailover FailoverFunc
}

// NewClientCachePool returns an empty cache whose per-endpoint pools
// hold size connections each; size <= 0 means DefaultPoolShards().
func NewClientCachePool(reg *Registry, size int) *ClientCache {
	if size <= 0 {
		size = DefaultPoolShards()
	}
	return &ClientCache{reg: reg, shards: size, pools: make(map[string]*Pool)}
}

// Shards returns the per-endpoint pool width.
func (cc *ClientCache) Shards() int { return cc.shards }

// SetFailoverObserver installs fn on every pool created after the call
// (the node runtime installs it before serving, so in practice on all
// of them).  fn observes each failed delivery attempt in the pools'
// failover loops; see FailoverFunc for the contract.
func (cc *ClientCache) SetFailoverObserver(fn FailoverFunc) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.onFailover = fn
}

// Pool returns the endpoint's connection pool, creating it (undialled)
// on first use.
func (cc *ClientCache) Pool(endpoint string) (*Pool, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return nil, fmt.Errorf("client cache closed")
	}
	p, ok := cc.pools[endpoint]
	if !ok {
		p = newPool(cc.reg, endpoint, cc.shards, cc.onFailover)
		cc.pools[endpoint] = p
	}
	return p, nil
}

// Call performs one request on the endpoint's canonical shard-0
// connection (the gossip path).  A failed connection is evicted so the
// next call redials instead of hitting a poisoned client forever.
func (cc *ClientCache) Call(endpoint string, req *wire.Request) (*wire.Response, error) {
	p, err := cc.Pool(endpoint)
	if err != nil {
		return nil, err
	}
	c, err := p.client(0)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(req)
	if err != nil {
		p.evict(0, c)
	}
	return resp, err
}

// CallKey performs one request on the shard of the endpoint's pool that
// the affinity key selects ("" round-robins), with shard failover — the
// invocation path.
func (cc *ClientCache) CallKey(endpoint, key string, req *wire.Request) (*wire.Response, error) {
	p, err := cc.Pool(endpoint)
	if err != nil {
		return nil, err
	}
	return p.CallKey(key, req)
}

// Close closes every shard of every pool exactly once and rejects
// further use.
func (cc *ClientCache) Close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	pools := cc.pools
	cc.pools = make(map[string]*Pool)
	cc.mu.Unlock()
	var firstErr error
	for _, p := range pools {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
