// Package telemetry is a node's call-affinity metrics plane: per-object
// and per-class counters recorded at the proxy-call and dispatch sites,
// read periodically by the adaptive placement engine (internal/adapt)
// that redraws the program's distribution boundaries.
//
// Every instrument is an internal/metrics one: counts are Counters,
// endpoint-keyed counts are Family[Counter]s under the registry's one
// overflow rule (past FamilyMax keys, traffic folds into metrics.Other,
// which samples report as unitemised), and latencies are EWMAs.  The
// per-peer rollups are families on the node's registry — peer.calls,
// peer.bytes, peer.rtt_ns — so the introspection snapshot lists them as
// ordinary rows.
//
// # Thread safety and lock hierarchy
//
// Recording happens on the hottest paths in the system — inside inbound
// dispatch and outgoing proxy invocations, sometimes below an object's
// invocation gate — so every update is a handful of atomic operations
// and no recording path ever blocks on a lock (docs/CONCURRENCY.md):
//
//   - Per-object instruments live in an ObjStats reached through the
//     object's telemetry slot (vm.Object.Telemetry, one atomic load).
//   - A family lookup is a sync.Map load on the hit path.
//   - The recorder's object and class indexes are sync.Maps, touched on
//     the first record for an object/class only.
//
// Readers take object and class counters through a Window cursor,
// which turns them into deltas since that reader's previous read; peer
// rollups are read cumulatively, as registry snapshot rows.
package telemetry

import (
	"strings"
	"sync"
	"time"
	"weak"

	"rafda/internal/metrics"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

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

	localCalls metrics.Counter // host-driven and collapsed same-node calls
	bytesIn    metrics.Counter
	bytesOut   metrics.Counter
	reads      metrics.Counter                 // calls the effect analysis proved read-only
	writes     metrics.Counter                 // calls that may mutate (incl. unprovable ones)
	callers    metrics.Family[metrics.Counter] // inbound calls by caller endpoint, "" unidentified
	lat        metrics.EWMA                    // in-gate service latency of inbound calls
}

// RecordInbound counts one served invocation: caller is the requesting
// node's serving endpoint ("" when unidentified; a caller past the
// itemisation cap counts as unidentified too), sizes are the
// estimated wire payloads, lat the service time measured under the
// object's gate (queueing for the gate is excluded, so a contended but
// fast object does not read as a slow one).
func (s *ObjStats) RecordInbound(caller string, reqBytes, respBytes int, lat time.Duration) {
	s.callers.Get(caller).Inc()
	s.bytesIn.Add(uint64(reqBytes))
	s.bytesOut.Add(uint64(respBytes))
	s.lat.Observe(lat)
}

// RecordLocal counts one same-address-space invocation (host CallOn or a
// proxy call collapsed onto the live local object).  Deliberately
// minimal — one atomic add, no clock read — because this is the
// post-convergence steady-state path.
func (s *ObjStats) RecordLocal() { s.localCalls.Inc() }

// RecordEffect counts one invocation by its method-effect class: write
// when the verifier's analysis could not prove the method read-only.
// Recorded at the same sites as RecordInbound/RecordLocal; the
// read/write ratio is the ReplicateRule's eligibility signal
// (docs/REPLICATION.md).
func (s *ObjStats) RecordEffect(write bool) {
	if write {
		s.writes.Inc()
	} else {
		s.reads.Inc()
	}
}

// ClassStats is one class's activity record: where instances are
// created, and where this node's outgoing proxy calls for the class go.
type ClassStats struct {
	localCreates  metrics.Counter                 // factory make under local placement
	remoteCreates metrics.Family[metrics.Counter] // factory make under remote placement, by target
	servedCreates metrics.Family[metrics.Counter] // OpCreate served for peers, by caller, "" unidentified
	outCalls      metrics.Family[metrics.Counter] // outgoing proxy calls, by callee endpoint
	outBytes      metrics.Counter
	outLat        metrics.EWMA // round-trip latency of outgoing proxy calls
}

// PeerKey canonicalises an endpoint for per-peer aggregation: the
// shard-qualified socket names the connection pool uses in diagnostics
// ("rrp://h:p#3", transport.Pool.ShardID) fold back to their peer
// endpoint, so observations from different pool shards land in one
// peer row.  Canonical endpoints pass through unchanged.
func PeerKey(endpoint string) string {
	if i := strings.LastIndexByte(endpoint, '#'); i >= 0 {
		return endpoint[:i]
	}
	return endpoint
}

// Recorder is one node's metrics plane.  The zero value is not usable;
// construct with NewRecorder.  A nil *Recorder is the disabled plane:
// the node runtime checks for nil before the (cheap) record calls.
//
// Its per-peer rollups are the registry families peer.calls, peer.bytes
// and peer.rtt_ns: how often this node talks to each peer, how many
// bytes cross, and the smoothed round-trip time.  They are an
// observability surface (rafdac top, introspection); no placement rule
// reads them.  The RTT is fed by outgoing proxy calls and by gossip
// pings, so a peer's RTT is known even before any invocation targets it.
//
// Rollups are per *peer*, never per socket: the transport pools several
// connections per endpoint, and an RTT fragmented across pool shards
// would show an operator N thin, noisy rows instead of one coherent
// latency.  Today's recording
// sites (proxy calls, gossip pings) already pass canonical endpoints;
// every peer key folds through PeerKey anyway so the invariant holds
// even if a shard-qualified socket name (transport.Pool.ShardID) ever
// reaches a recording path.
type Recorder struct {
	objs      sync.Map // guid -> *ObjStats
	classes   sync.Map // class -> *ClassStats
	peerCalls *metrics.Family[metrics.Counter]
	peerBytes *metrics.Family[metrics.Counter]
	peerRTT   *metrics.Family[metrics.EWMA]
}

// NewRecorder returns an empty metrics plane whose peer rollups are
// registered on reg (nil: unregistered, as for every other plane).
func NewRecorder(reg *metrics.Registry) *Recorder {
	return &Recorder{
		peerCalls: reg.Counters("peer.calls"),
		peerBytes: reg.Counters("peer.bytes"),
		peerRTT:   reg.EWMAs("peer.rtt_ns"),
	}
}

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
	r.forClass(class).localCreates.Inc()
}

// RecordCreateRemote counts one remote factory construction of class at
// target (this node asked target to instantiate).
func (r *Recorder) RecordCreateRemote(class, target string) {
	r.forClass(class).remoteCreates.Get(target).Inc()
}

// RecordCreateServed counts one construction of class served for the
// peer at caller ("" when unidentified, like a caller past the cap).
func (r *Recorder) RecordCreateServed(class, caller string) {
	r.forClass(class).servedCreates.Get(caller).Inc()
}

// RecordOutbound counts one outgoing proxy invocation on an instance (or
// the statics singleton) of class at endpoint.  The call also rolls into
// the per-peer rows, so every invocation refreshes the peer's RTT EWMA.
func (r *Recorder) RecordOutbound(class, endpoint string, bytes int, lat time.Duration) {
	cs := r.forClass(class)
	cs.outCalls.Get(endpoint).Inc()
	cs.outBytes.Add(uint64(bytes))
	cs.outLat.Observe(lat)
	peer := PeerKey(endpoint)
	r.peerCalls.Get(peer).Inc()
	r.peerBytes.Get(peer).Add(uint64(bytes))
	r.peerRTT.Get(peer).Observe(lat)
}

// RecordPeerRTT folds one observed round trip to endpoint into its RTT
// EWMA without counting an invocation — the gossip plane's heartbeat
// exchanges feed this, keeping RTT estimates fresh for idle peers.
func (r *Recorder) RecordPeerRTT(endpoint string, lat time.Duration) {
	r.peerRTT.Get(PeerKey(endpoint)).Observe(lat)
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
	out = ObjSample{
		GUID:          s.guid,
		Class:         s.class,
		Obj:           obj,
		Local:         s.localCalls.Load(),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		Reads:         s.reads.Load(),
		Writes:        s.writes.Load(),
		EWMALatencyNs: s.lat.Load(),
	}
	out.Callers, out.Remote, out.Anon = itemise(&s.callers)
	return out, true
}

// itemise splits an endpoint family into its itemised counts (nil when
// none) and their sum, and the unitemised count: the unidentified ""
// key plus metrics.Other.  No sample map ever holds either key, so no
// rule can propose one as a destination.
func itemise(f *metrics.Family[metrics.Counter]) (byEp map[string]uint64, itemised, unitemised uint64) {
	f.Each(func(ep string, c *metrics.Counter) {
		n := c.Load()
		if ep == "" || ep == metrics.Other {
			unitemised += n
			return
		}
		if byEp == nil {
			byEp = map[string]uint64{}
		}
		byEp[ep] = n
		itemised += n
	})
	return byEp, itemised, unitemised
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
	out := ClassSample{
		Class:        class,
		LocalCreates: s.localCreates.Load(),
		OutBytes:     s.outBytes.Load(),
		OutEWMANs:    s.outLat.Load(),
	}
	out.RemoteCreates, _, _ = itemise(&s.remoteCreates)
	out.ServedCreates, _, out.ServedAnon = itemise(&s.servedCreates)
	out.OutCalls, _, _ = itemise(&s.outCalls)
	return out
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

// RequestSize estimates req's wire payload in bytes (codec-independent:
// it feeds only the byte counters operators read — the telemetry
// snapshot's and peer.bytes — which need relative magnitudes, not
// exact frame lengths).
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
	return len(r.GUID) + len(r.Endpoint) + len(r.Target)
}
