// Package telemetry is a node's call-affinity metrics plane: per-object
// and per-class counters recorded at the proxy-call and dispatch sites,
// read periodically by the adaptive placement engine (internal/adapt)
// that redraws the program's distribution boundaries.
//
// # Thread safety and lock hierarchy
//
// Recording happens on the hottest paths in the system — inside inbound
// dispatch and outgoing proxy invocations, sometimes below an object's
// invocation gate — so every update is a handful of atomic operations
// and no recording path ever blocks on a lock (docs/CONCURRENCY.md):
//
//   - Per-object counters live in an ObjStats reached through the
//     object's telemetry slot (vm.Object.Telemetry, one atomic load).
//   - Per-endpoint counters are copy-on-write endpoint→counter lists
//     published through atomic pointers; bumping an existing endpoint is
//     one atomic add, adding a new endpoint is a CAS loop.
//   - The EWMA latency is float64 bits in a uint64 CAS loop.
//   - The recorder's object and class indexes are sync.Maps, touched on
//     the first record for an object/class only.
//
// Readers take object and class counters through a Window cursor,
// which turns them into deltas since that reader's previous read; peer
// rollups are read cumulatively (SnapshotPeers, PeerRTTs).
package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"rafda/internal/metrics"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// ewmaAlpha is the smoothing factor of the latency EWMA: ~the last 10
// observations dominate.
const ewmaAlpha = 0.2

// epSet is an immutable endpoint→counter list published through an
// atomic pointer.  Nodes talk to a handful of peers, so linear scans
// beat a map and stay allocation-free on the hit path.  Callers arrive
// off the wire, so a set itemises at most metrics.FamilyMax endpoints;
// past that, bump refuses and the recording site counts the event
// unitemised, the way it counts an anonymous caller.
type epSet struct {
	entries []epEntry
}

type epEntry struct {
	ep string
	n  *atomic.Uint64
}

// bump increments the counter for ep, installing it on first use; it
// reports false, counting nothing, when ep is new and the set is full.
func bump(p *atomic.Pointer[epSet], ep string) bool {
	c := counterIn(p, ep)
	if c == nil {
		return false
	}
	c.Add(1)
	return true
}

func counterIn(p *atomic.Pointer[epSet], ep string) *atomic.Uint64 {
	for {
		s := p.Load()
		if s != nil {
			for i := range s.entries {
				if s.entries[i].ep == ep {
					return s.entries[i].n
				}
			}
			if len(s.entries) >= metrics.FamilyMax {
				return nil
			}
		}
		next := &epSet{}
		if s != nil {
			next.entries = append(next.entries, s.entries...)
		}
		ctr := &atomic.Uint64{}
		next.entries = append(next.entries, epEntry{ep: ep, n: ctr})
		if p.CompareAndSwap(s, next) {
			return ctr
		}
	}
}

func snapshotSet(p *atomic.Pointer[epSet]) map[string]uint64 {
	s := p.Load()
	if s == nil {
		return nil
	}
	out := make(map[string]uint64, len(s.entries))
	for i := range s.entries {
		out[s.entries[i].ep] = s.entries[i].n.Load()
	}
	return out
}

// ewma is a lock-free exponentially weighted moving average.
type ewma struct {
	bits atomic.Uint64 // float64 bits; 0 = no observation yet
}

func (e *ewma) observe(d time.Duration) {
	ns := float64(d.Nanoseconds())
	for {
		old := e.bits.Load()
		var next float64
		if old == 0 {
			next = ns
		} else {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*ns
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *ewma) load() float64 {
	b := e.bits.Load()
	if b == 0 {
		return 0
	}
	return math.Float64frombits(b)
}

// ObjStats is one object's activity record.  It is installed in the
// object's telemetry slot, so it survives migration morphs (the slot
// rides the object identity, and a forwarded call on the morphed proxy
// keeps recording here until callers retarget).
type ObjStats struct {
	guid  string
	class string
	// obj is weak: the object itself holds this record strongly through
	// its telemetry slot, and a strong back-reference here would pin
	// every object ever observed for the recorder's lifetime.  Once the
	// object is collected, the next Window.Next evicts the index entry,
	// so the recorder tracks the live working set, not history.
	obj weak.Pointer[vm.Object]

	localCalls  atomic.Uint64 // host-driven and collapsed same-node calls
	remoteCalls atomic.Uint64 // inbound invocations from identified peers
	anonCalls   atomic.Uint64 // inbound from peers serving no endpoint, or past the callers cap
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	reads       atomic.Uint64         // calls the effect analysis proved read-only
	writes      atomic.Uint64         // calls that may mutate (incl. unprovable ones)
	callers     atomic.Pointer[epSet] // inbound calls by caller endpoint
	lat         ewma                  // in-gate service latency of inbound calls
}

// RecordInbound counts one served invocation: caller is the requesting
// node's serving endpoint ("" when unidentified; a caller past the
// itemisation cap counts as unidentified too), sizes are the
// estimated wire payloads, lat the service time measured under the
// object's gate (queueing for the gate is excluded, so a contended but
// fast object does not read as a slow one).
func (s *ObjStats) RecordInbound(caller string, reqBytes, respBytes int, lat time.Duration) {
	if caller != "" && bump(&s.callers, caller) {
		s.remoteCalls.Add(1)
	} else {
		s.anonCalls.Add(1)
	}
	s.bytesIn.Add(uint64(reqBytes))
	s.bytesOut.Add(uint64(respBytes))
	s.lat.observe(lat)
}

// RecordLocal counts one same-address-space invocation (host CallOn or a
// proxy call collapsed onto the live local object).  Deliberately
// minimal — one atomic add, no clock read — because this is the
// post-convergence steady-state path.
func (s *ObjStats) RecordLocal() { s.localCalls.Add(1) }

// RecordEffect counts one invocation by its method-effect class: write
// when the verifier's analysis could not prove the method read-only.
// Recorded at the same sites as RecordInbound/RecordLocal; the
// read/write ratio is the ReplicateRule's eligibility signal
// (docs/REPLICATION.md).
func (s *ObjStats) RecordEffect(write bool) {
	if write {
		s.writes.Add(1)
	} else {
		s.reads.Add(1)
	}
}

// ClassStats is one class's activity record: where instances are
// created, and where this node's outgoing proxy calls for the class go.
type ClassStats struct {
	localCreates  atomic.Uint64         // factory make under local placement
	remoteCreates atomic.Pointer[epSet] // factory make under remote placement, by target
	servedCreates atomic.Pointer[epSet] // OpCreate served for peers, by caller
	servedAnon    atomic.Uint64
	outCalls      atomic.Pointer[epSet] // outgoing proxy calls, by callee endpoint
	outBytes      atomic.Uint64
	outLat        ewma // round-trip latency of outgoing proxy calls
}

// PeerStats is one remote endpoint's rollup: how often this node talks
// to it, how many bytes cross, and the smoothed round-trip time.  The
// RTT EWMA is the latency input of cost-based placement rules (benefit
// of migrating = remote calls × RTT) and of multi-hop evidence in the
// cluster plane; it is fed by outgoing proxy calls and by gossip pings,
// so a peer's RTT is known even before any invocation targets it.
//
// Rollups are per *peer*, never per socket: the transport pools several
// connections per endpoint, and an RTT fragmented across pool shards
// would hand CostAffinityRule and the gossip suspicion ladder N thin,
// noisy estimates instead of one coherent latency.  Today's recording
// sites (proxy calls, gossip pings) already pass canonical endpoints;
// forPeer folds through PeerKey anyway so the invariant holds even if
// a shard-qualified socket name (transport.Pool.ShardID) ever reaches
// a recording path — the guard the pool sharding made worth pinning.
type PeerStats struct {
	calls atomic.Uint64
	bytes atomic.Uint64
	rtt   ewma
}

// PeerKey canonicalises an endpoint for per-peer aggregation: the
// shard-qualified socket names the connection pool uses in diagnostics
// ("rrp://h:p#3", transport.Pool.ShardID) fold back to their peer
// endpoint, so observations from different pool shards land in one
// PeerStats.  Canonical endpoints pass through unchanged.
func PeerKey(endpoint string) string {
	if i := strings.LastIndexByte(endpoint, '#'); i >= 0 {
		return endpoint[:i]
	}
	return endpoint
}

// Recorder is one node's metrics plane.  The zero value is not usable;
// construct with NewRecorder.  A nil *Recorder is the disabled plane:
// the node runtime checks for nil before the (cheap) record calls.
type Recorder struct {
	objs    sync.Map // guid -> *ObjStats
	classes sync.Map // class -> *ClassStats
	peers   sync.Map // endpoint -> *PeerStats
}

// NewRecorder returns an empty metrics plane.
func NewRecorder() *Recorder { return &Recorder{} }

// ForObject returns obj's stats record, installing one (and indexing it
// under guid) on first use.  The fast path is a single atomic load from
// the object's slot.
func (r *Recorder) ForObject(obj *vm.Object, guid, class string) *ObjStats {
	if s, _ := obj.Telemetry().(*ObjStats); s != nil {
		return s
	}
	rec, installed := obj.TelemetryOrInit(func() any {
		return &ObjStats{guid: guid, class: class, obj: weak.Make(obj)}
	})
	s := rec.(*ObjStats)
	if installed {
		r.objs.Store(guid, s)
	}
	return s
}

// forClass returns class's stats record, creating it on first use.
func (r *Recorder) forClass(class string) *ClassStats {
	if s, ok := r.classes.Load(class); ok {
		return s.(*ClassStats)
	}
	s, _ := r.classes.LoadOrStore(class, &ClassStats{})
	return s.(*ClassStats)
}

// RecordCreateLocal counts one local factory construction of class.
func (r *Recorder) RecordCreateLocal(class string) {
	r.forClass(class).localCreates.Add(1)
}

// RecordCreateRemote counts one remote factory construction of class at
// target (this node asked target to instantiate).
func (r *Recorder) RecordCreateRemote(class, target string) {
	bump(&r.forClass(class).remoteCreates, target)
}

// RecordCreateServed counts one construction of class served for the
// peer at caller ("" when unidentified, like a caller past the cap).
func (r *Recorder) RecordCreateServed(class, caller string) {
	cs := r.forClass(class)
	if caller == "" || !bump(&cs.servedCreates, caller) {
		cs.servedAnon.Add(1)
	}
}

// RecordOutbound counts one outgoing proxy invocation on an instance (or
// the statics singleton) of class at endpoint.  The call also rolls into
// the per-peer stats, so every invocation refreshes the peer's RTT EWMA.
func (r *Recorder) RecordOutbound(class, endpoint string, bytes int, lat time.Duration) {
	cs := r.forClass(class)
	bump(&cs.outCalls, endpoint)
	cs.outBytes.Add(uint64(bytes))
	cs.outLat.observe(lat)
	ps := r.forPeer(endpoint)
	ps.calls.Add(1)
	ps.bytes.Add(uint64(bytes))
	ps.rtt.observe(lat)
}

// forPeer returns endpoint's rollup, creating it on first use.  The
// index key is always the PeerKey form, so per-socket names aggregate.
func (r *Recorder) forPeer(endpoint string) *PeerStats {
	endpoint = PeerKey(endpoint)
	if s, ok := r.peers.Load(endpoint); ok {
		return s.(*PeerStats)
	}
	s, _ := r.peers.LoadOrStore(endpoint, &PeerStats{})
	return s.(*PeerStats)
}

// RecordPeerRTT folds one observed round trip to endpoint into its RTT
// EWMA without counting an invocation — the gossip plane's heartbeat
// exchanges feed this, keeping RTT estimates fresh for idle peers.
func (r *Recorder) RecordPeerRTT(endpoint string, lat time.Duration) {
	r.forPeer(endpoint).rtt.observe(lat)
}

// ObjSample is one object's counters over a window (see Window).
type ObjSample struct {
	GUID  string     `json:"guid"`
	Class string     `json:"class"`
	Obj   *vm.Object `json:"-"`
	// Local counts host-driven and same-node collapsed calls, Remote
	// calls from identified peers (itemised in Callers), Anon calls
	// from peers serving no endpoint or past the itemisation cap.
	Local    uint64            `json:"local"`
	Remote   uint64            `json:"remote"`
	Anon     uint64            `json:"anon,omitempty"`
	Callers  map[string]uint64 `json:"callers,omitempty"`
	BytesIn  uint64            `json:"bytes_in"`
	BytesOut uint64            `json:"bytes_out"`
	// Reads counts calls proven read-only by the effect analysis,
	// Writes everything else; they partition the calls that went through
	// an effect-classified site (proxy dispatch and host CallOn).
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// EWMALatencyNs is the smoothed inbound service latency: the
	// current EWMA, not a window delta.
	EWMALatencyNs float64 `json:"ewma_latency_ns"`
}

// Calls returns the total inbound invocation count.
func (s ObjSample) Calls() uint64 { return s.Local + s.Remote + s.Anon }

// sample reads s's cumulative counters; ok is false once the object
// has been collected.
func (s *ObjStats) sample() (out ObjSample, ok bool) {
	obj := s.obj.Value()
	if obj == nil {
		return out, false
	}
	return ObjSample{
		GUID:          s.guid,
		Class:         s.class,
		Obj:           obj,
		Local:         s.localCalls.Load(),
		Remote:        s.remoteCalls.Load(),
		Anon:          s.anonCalls.Load(),
		Callers:       snapshotSet(&s.callers),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		Reads:         s.reads.Load(),
		Writes:        s.writes.Load(),
		EWMALatencyNs: s.lat.load(),
	}, true
}

// ClassSample is one class's counters over a window (see Window).
type ClassSample struct {
	Class         string            `json:"class"`
	LocalCreates  uint64            `json:"local_creates"`
	RemoteCreates map[string]uint64 `json:"remote_creates,omitempty"` // by construction target endpoint
	ServedCreates map[string]uint64 `json:"served_creates,omitempty"` // by requesting peer endpoint
	ServedAnon    uint64            `json:"served_anon"`              // unidentified or past the cap
	OutCalls      map[string]uint64 `json:"out_calls,omitempty"`      // by callee endpoint
	OutBytes      uint64            `json:"out_bytes"`
	OutEWMANs     float64           `json:"out_ewma_ns"` // current EWMA, not a delta
}

func (s *ClassStats) sample(class string) ClassSample {
	return ClassSample{
		Class:         class,
		LocalCreates:  s.localCreates.Load(),
		RemoteCreates: snapshotSet(&s.remoteCreates),
		ServedCreates: snapshotSet(&s.servedCreates),
		ServedAnon:    s.servedAnon.Load(),
		OutCalls:      snapshotSet(&s.outCalls),
		OutBytes:      s.outBytes.Load(),
		OutEWMANs:     s.outLat.load(),
	}
}

// Window is one reader's cursor over the recorder's object and class
// counters, and the only place cumulative counts become deltas.  Each
// reader that wants "what happened lately" — the adapt engine's
// evaluation window, the cluster's gossip rollups — holds its own
// cursor, so readers at different cadences never steal each other's
// deltas; a fresh cursor's first Next is the cumulative snapshot.
//
// A Window is safe for concurrent use.  Its baselines sit behind its
// own mutex, which Next holds only across atomic counter loads and
// sync.Map ranges, never while calling out (docs/CONCURRENCY.md §11).
type Window struct {
	r       *Recorder
	mu      sync.Mutex
	objs    map[*ObjStats]ObjSample // cumulative counts at the previous Next
	classes map[string]ClassSample
}

// NewWindow returns a cursor positioned at the start of recording.
func (r *Recorder) NewWindow() *Window {
	return &Window{r: r, objs: map[*ObjStats]ObjSample{}, classes: map[string]ClassSample{}}
}

// Next advances the cursor.  It returns a sample for every live object
// called since the cursor's previous Next (since recording began, on
// the first), and one for every class; counters are the deltas over
// that span, EWMAs their current values.  Objects whose object has been
// collected leave the recorder's index, and their baselines leave this
// cursor, so both stay bounded by the live working set.  Baselines are
// kept per stats record, so an object re-indexed under a reused GUID
// starts from zero rather than underflowing against its predecessor.
func (w *Window) Next() (objs []ObjSample, classes []ClassSample) {
	w.mu.Lock()
	defer w.mu.Unlock()
	base := make(map[*ObjStats]ObjSample, len(w.objs))
	w.r.objs.Range(func(k, v any) bool {
		s := v.(*ObjStats)
		cur, ok := s.sample()
		if !ok {
			w.r.objs.CompareAndDelete(k, v)
			return true
		}
		if d := cur.minus(w.objs[s]); d.Calls() > 0 {
			objs = append(objs, d)
		}
		cur.Obj = nil // a baseline must not pin its object
		base[s] = cur
		return true
	})
	w.objs = base
	w.r.classes.Range(func(k, v any) bool {
		cur := v.(*ClassStats).sample(k.(string))
		classes = append(classes, cur.minus(w.classes[cur.Class]))
		w.classes[cur.Class] = cur
		return true
	})
	return objs, classes
}

func (s ObjSample) minus(b ObjSample) ObjSample {
	s.Local -= b.Local
	s.Remote -= b.Remote
	s.Anon -= b.Anon
	s.Callers = minusSet(s.Callers, b.Callers)
	s.BytesIn -= b.BytesIn
	s.BytesOut -= b.BytesOut
	s.Reads -= b.Reads
	s.Writes -= b.Writes
	return s
}

func (s ClassSample) minus(b ClassSample) ClassSample {
	s.LocalCreates -= b.LocalCreates
	s.RemoteCreates = minusSet(s.RemoteCreates, b.RemoteCreates)
	s.ServedCreates = minusSet(s.ServedCreates, b.ServedCreates)
	s.ServedAnon -= b.ServedAnon
	s.OutCalls = minusSet(s.OutCalls, b.OutCalls)
	s.OutBytes -= b.OutBytes
	return s
}

// minusSet returns a fresh map of cur's positive deltas over prev (nil
// when none), so a returned sample never aliases a cursor's baseline.
func minusSet(cur, prev map[string]uint64) map[string]uint64 {
	var out map[string]uint64
	for k, n := range cur {
		if d := n - prev[k]; d > 0 {
			if out == nil {
				out = make(map[string]uint64, len(cur))
			}
			out[k] = d
		}
	}
	return out
}

// PeerSample is one endpoint's cumulative rollup at snapshot time.
type PeerSample struct {
	Endpoint  string  `json:"endpoint"`
	Calls     uint64  `json:"calls"`
	Bytes     uint64  `json:"bytes"`
	RTTEWMANs float64 `json:"rtt_ewma_ns"`
}

// SnapshotPeers returns cumulative per-peer samples.
func (r *Recorder) SnapshotPeers() []PeerSample {
	var out []PeerSample
	r.peers.Range(func(k, v any) bool {
		s := v.(*PeerStats)
		out = append(out, PeerSample{
			Endpoint:  k.(string),
			Calls:     s.calls.Load(),
			Bytes:     s.bytes.Load(),
			RTTEWMANs: s.rtt.load(),
		})
		return true
	})
	return out
}

// PeerRTTs returns the current RTT EWMA per endpoint, in nanoseconds —
// the form the adapt engine's cost rules consume.
func (r *Recorder) PeerRTTs() map[string]float64 {
	out := map[string]float64{}
	r.peers.Range(func(k, v any) bool {
		if ns := v.(*PeerStats).rtt.load(); ns > 0 {
			out[k.(string)] = ns
		}
		return true
	})
	return out
}

// RequestSize estimates req's wire payload in bytes (codec-independent:
// the adaptive rules need relative magnitudes, not exact frame lengths).
func RequestSize(req *wire.Request) int {
	n := 16 + len(req.GUID) + len(req.Class) + len(req.Method) + len(req.Endpoint) + len(req.Caller)
	for i := range req.Args {
		n += valueSize(&req.Args[i])
	}
	for i := range req.Fields {
		n += len(req.Fields[i].Name) + valueSize(&req.Fields[i].Value)
	}
	if req.Token != nil {
		n += len(req.Token.Caller) + 12
	}
	return n
}

// ResponseSize estimates resp's wire payload in bytes.
func ResponseSize(resp *wire.Response) int {
	n := 8 + len(resp.ExClass) + len(resp.ExMsg) + len(resp.Err) + valueSize(&resp.Result)
	if resp.Redirect != nil {
		n += refSize(resp.Redirect)
	}
	return n
}

func valueSize(v *wire.Value) int {
	switch v.Kind {
	case wire.KString:
		return 1 + len(v.Str)
	case wire.KRef:
		if v.Ref == nil {
			return 1
		}
		return 1 + refSize(v.Ref)
	case wire.KArray:
		n := 1 + len(v.Elem)
		for i := range v.Arr {
			n += valueSize(&v.Arr[i])
		}
		return n
	default:
		return 9 // kind byte + an 8-byte payload upper bound
	}
}

func refSize(r *wire.RemoteRef) int {
	return len(r.GUID) + len(r.Endpoint) + len(r.Proto) + len(r.Target) + 1
}
