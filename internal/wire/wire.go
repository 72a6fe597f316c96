// Package wire defines the protocol-independent invocation model
// exchanged between nodes: requests, responses and marshalled values.
// Each transport (internal/transport) carries these messages in its own
// encoding — binary for RRP, XML for SOAP, JSON for JSON-RPC — exactly as
// the paper's proxy families differ only in transport.
package wire

import (
	"encoding/xml"
	"fmt"
	"strconv"
)

// Op enumerates request kinds.
type Op uint8

// Request operations.
const (
	OpInvalid Op = iota
	// OpInvoke calls a method on an exported object (GUID); a class GUID
	// (guid.ClassGUID) names the class's statics singleton.
	OpInvoke
	// OpCreate instantiates Class's local implementation on the callee
	// and returns a remote reference (the remote half of factory make).
	OpCreate
	// OpMigrateIn installs a migrated object: Class plus field state;
	// returns the new remote reference (the §4 dynamic-redistribution
	// mechanism).
	OpMigrateIn
	// OpPing is a liveness and round-trip probe.
	OpPing
	// OpMigrateOut asks the object's home node to migrate GUID to the
	// node at Endpoint and return the new remote reference; it lets any
	// holder of a reference re-place the object.
	OpMigrateOut
	// OpGossip carries one push-pull cluster gossip exchange: the
	// request's Cluster payload is the sender's membership digest,
	// placement-directory delta, live placement intents and affinity
	// rollups; the response's Cluster payload is the receiver's, so one
	// round trip synchronises both peers (internal/cluster).
	OpGossip
	// OpReplicaInstall asks the callee to install a read replica of the
	// object exported under GUID at the primary (Endpoint): Class plus
	// field state at write-epoch Epoch.  Returns the replica's own
	// remote reference (docs/REPLICATION.md).
	OpReplicaInstall
	// OpReplicaUpdate pushes a committed write to a replica: the
	// replica's GUID, the full post-write field state, and the new
	// Epoch.  A replica applies it iff Epoch exceeds its local epoch.
	OpReplicaUpdate
	// OpReplicaDrop tears a replica down (demotion or eviction); the
	// replica stops serving reads immediately.
	OpReplicaDrop
	// OpIntrospect is an effect-free observability probe: the callee
	// answers with a JSON snapshot of its unified metrics (stats,
	// dedup, telemetry, pool, cluster, trace histograms), its control
	// log or its recorded spans, selected by Method ("metrics",
	// "events", "spans", "trace"); for "trace", GUID carries the
	// hexadecimal trace id to filter on.
	OpIntrospect
)

func (o Op) String() string {
	switch o {
	case OpInvoke:
		return "invoke"
	case OpCreate:
		return "create"
	case OpMigrateIn:
		return "migrate-in"
	case OpPing:
		return "ping"
	case OpMigrateOut:
		return "migrate-out"
	case OpGossip:
		return "gossip"
	case OpReplicaInstall:
		return "replica-install"
	case OpReplicaUpdate:
		return "replica-update"
	case OpReplicaDrop:
		return "replica-drop"
	case OpIntrospect:
		return "introspect"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ValueKind tags a marshalled value.
type ValueKind uint8

// Marshalled value kinds.
const (
	KInvalid ValueKind = iota
	KVoid
	KNull
	KBool
	KInt
	KFloat
	KString
	KRef   // remote object reference
	KArray // array copied by value, like RMI array semantics
)

func (k ValueKind) String() string {
	switch k {
	case KVoid:
		return "void"
	case KNull:
		return "null"
	case KBool:
		return "bool"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KString:
		return "string"
	case KRef:
		return "ref"
	case KArray:
		return "array"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// RemoteRef identifies an exported object (or class singleton) on some
// node.  Proxies are constructed from it; passing a proxy on re-marshals
// the same reference, so references retarget transparently.  The
// endpoint's scheme is the transport, and a class GUID
// (guid.ClassGUID) marks a statics reference.
type RemoteRef struct {
	GUID     string `json:"guid" xml:"guid,attr"`
	Endpoint string `json:"endpoint" xml:"endpoint,attr"`
	// Target is the original (pre-transformation) class name.
	Target string `json:"target" xml:"target,attr"`
}

// Value is one marshalled argument or result.
type Value struct {
	Kind  ValueKind  `json:"kind" xml:"kind,attr"`
	Bool  bool       `json:"bool,omitempty" xml:"bool,attr,omitempty"`
	Int   int64      `json:"int,omitempty" xml:"int,attr,omitempty"`
	Float float64    `json:"float,omitempty" xml:"float,attr,omitempty"`
	Str   string     `json:"str,omitempty" xml:"str,omitempty"`
	Ref   *RemoteRef `json:"ref,omitempty" xml:"ref,omitempty"`
	// Elem is the IR type descriptor of array elements.
	Elem string  `json:"elem,omitempty" xml:"elem,attr,omitempty"`
	Arr  []Value `json:"arr,omitempty" xml:"item,omitempty"`
}

// Request is one remote operation.
type Request struct {
	ID     uint64  `json:"id" xml:"id,attr"`
	Op     Op      `json:"op" xml:"op,attr"`
	GUID   string  `json:"guid,omitempty" xml:"guid,attr,omitempty"`
	Class  string  `json:"class,omitempty" xml:"class,attr,omitempty"`
	Method string  `json:"method,omitempty" xml:"method,attr,omitempty"`
	Args   []Value `json:"args,omitempty" xml:"arg,omitempty"`
	// Fields carries object state for OpMigrateIn.
	Fields []NamedValue `json:"fields,omitempty" xml:"field,omitempty"`
	// Endpoint is the migration target for OpMigrateOut.
	Endpoint string `json:"endpoint,omitempty" xml:"endpoint,attr,omitempty"`
	// Caller identifies the calling node's serving endpoint ("" when the
	// caller serves no transport).  The callee's telemetry plane uses it
	// to attribute per-object call affinity — the signal the adaptive
	// placement engine migrates objects toward (docs/ADAPTIVE.md).
	Caller string `json:"caller,omitempty" xml:"caller,attr,omitempty"`
	// Cluster carries the sender's gossip payload on OpGossip requests
	// (nil on every other op; docs/CLUSTER.md).
	Cluster *ClusterPayload `json:"cluster,omitempty" xml:"cluster,omitempty"`
	// Token stamps the logical call this request carries for the
	// callee's per-caller dedup window: a retry (transport failover, a
	// duplicated frame, a post-migration re-send) carries the same
	// (Caller, Seq) and is suppressed or answered from the replay cache
	// instead of executing twice.  nil on untokened requests — the
	// control plane's ping, gossip and introspect probes, and rafdac's —
	// which bypass dedup entirely.
	Token *CallToken `json:"token,omitempty" xml:"token,omitempty"`
	// Dedup ships completed dedup-window entries alongside an
	// OpMigrateIn snapshot: the adopting node seeds its own windows with
	// them, so a caller's retry of a call the old home already completed
	// replays at the new home instead of re-executing (docs/CONCURRENCY.md
	// §8).  Empty on every other op.
	Dedup []DedupEntry `json:"dedup,omitempty" xml:"dedup,omitempty"`
	// Epoch carries the write epoch on replica-maintenance ops
	// (OpReplicaInstall: the epoch of the shipped state;
	// OpReplicaUpdate: the epoch of the committed write).  Zero on
	// every other op (docs/REPLICATION.md).
	Epoch uint64 `json:"epoch,omitempty" xml:"epoch,attr,omitempty"`
	// Trace carries the causal span context this request runs under:
	// the server-side spans it produces parent to Trace.Span and join
	// trace Trace.Trace, so forwarded retries, migration re-sends and
	// replica fan-outs assemble into one cross-node call tree
	// (internal/trace, docs/OBSERVABILITY.md).  The zero value means the
	// sender records no trace.  A value (not a pointer) so stamping a
	// context on the request hot path allocates nothing.
	Trace TraceContext `json:"trace,omitzero" xml:"trace"`
	// DeadlineUs is the call's remaining latency budget in microseconds.
	// Zero means no deadline.  Each hop decrements it by the queue/gate
	// wait it measured before executing the call; a server that finds
	// the budget exhausted rejects at admission instead of burning a
	// dispatch slot.
	DeadlineUs uint64 `json:"deadline_us,omitempty" xml:"deadline-us,attr,omitempty"`
	// Priority is the call's admission priority class.  Zero — the
	// default — is the lowest class; higher classes survive deeper into
	// overload: when a server's shedding policies engage, a class-p call
	// is admitted at saturation depths that shed class-(p-1) traffic
	// (internal/intercept).
	Priority uint32 `json:"priority,omitempty" xml:"priority,attr,omitempty"`
	// SlotWaitUs is the dispatch-slot wait the receiving transport
	// measured for this request (microseconds spent blocked on the
	// server's inflight semaphore before the handler ran).  It is a
	// server-local measurement deposited by the transport for the
	// dispatch chain's queue-management interceptors — never serialized;
	// every codec omits it.
	SlotWaitUs uint64 `json:"-" xml:"-"`
}

// TraceContext is the span context riding a request: the trace the
// call belongs to and the sender-side span that caused it (the parent
// of whatever spans the callee emits).  The zero value means untraced.
type TraceContext struct {
	Trace uint64 `json:"trace" xml:"trace,attr"`
	Span  uint64 `json:"span" xml:"span,attr"`
}

// MarshalXML keeps the SOAP carrier's format identical to the pointer
// era: a zero context emits no element at all (encoding/xml has no
// omitempty for struct values), a live one emits the two id attributes.
func (tc TraceContext) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	if tc == (TraceContext{}) {
		return nil
	}
	start.Attr = append(start.Attr[:0],
		xml.Attr{Name: xml.Name{Local: "trace"}, Value: strconv.FormatUint(tc.Trace, 10)},
		xml.Attr{Name: xml.Name{Local: "span"}, Value: strconv.FormatUint(tc.Span, 10)})
	if err := e.EncodeToken(start); err != nil {
		return err
	}
	return e.EncodeToken(start.End())
}

// UnmarshalXML is the inverse: it reads the two id attributes and
// discards the (empty) element body.
func (tc *TraceContext) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	for _, a := range start.Attr {
		v, err := strconv.ParseUint(a.Value, 10, 64)
		if err != nil {
			return fmt.Errorf("trace attribute %s: %w", a.Name.Local, err)
		}
		switch a.Name.Local {
		case "trace":
			tc.Trace = v
		case "span":
			tc.Span = v
		}
	}
	return d.Skip()
}

// CallToken identifies one logical call across any number of physical
// deliveries.  Caller is the issuing node's unique incarnation id, Seq
// its monotonically increasing call counter, Attempt the retry ordinal
// (0 = first send) for diagnostics.  Ack piggybacks the caller's
// retirement watermark: every call with Seq <= Ack has had its response
// delivered to the caller, so the callee drops those window entries —
// the window stays bounded by the caller's in-flight set plus the
// replay-cache cap, not by history.
type CallToken struct {
	Caller  string `json:"caller" xml:"caller,attr"`
	Seq     uint64 `json:"seq" xml:"seq,attr"`
	Attempt uint32 `json:"attempt,omitempty" xml:"attempt,attr,omitempty"`
	Ack     uint64 `json:"ack,omitempty" xml:"ack,attr,omitempty"`
}

// DedupEntry is one completed call's record as shipped inside a
// migration snapshot: the token coordinates that identify the logical
// call and the response its execution produced.
type DedupEntry struct {
	Caller string   `json:"caller" xml:"caller,attr"`
	Seq    uint64   `json:"seq" xml:"seq,attr"`
	Resp   Response `json:"resp" xml:"resp"`
}

// NamedValue is a field name/value pair (migration payloads).
type NamedValue struct {
	Name  string `json:"name" xml:"name,attr"`
	Value Value  `json:"value" xml:"value"`
}

// Response answers one Request.
type Response struct {
	ID     uint64 `json:"id" xml:"id,attr"`
	Result Value  `json:"result" xml:"result"`
	// ExClass/ExMsg report a program-level exception thrown by the
	// callee; it re-materialises as a thrown exception at the caller.
	ExClass string `json:"exClass,omitempty" xml:"exClass,attr,omitempty"`
	ExMsg   string `json:"exMsg,omitempty" xml:"exMsg,omitempty"`
	// Err reports an infrastructure failure (unknown GUID, bad method);
	// it surfaces as sys.RemoteException at the caller.
	Err string `json:"err,omitempty" xml:"err,omitempty"`
	// Redirect reports that the target object has moved: the callee
	// served the request (forwarding through its morphed copy) but the
	// object now lives at Redirect.  Callers retarget their proxy so
	// subsequent calls go to the new home directly — without it, an
	// adaptively migrated object would be reached through a permanent
	// forwarding hop and placement decisions could never converge.
	Redirect *RemoteRef `json:"redirect,omitempty" xml:"redirect,omitempty"`
	// Cluster is the receiver's gossip payload answering an OpGossip
	// request (push-pull: one round trip synchronises both peers).
	Cluster *ClusterPayload `json:"cluster,omitempty" xml:"cluster,omitempty"`
	// Epoch stamps a read served by a replicated object with the write
	// epoch of the state it observed, letting callers (and the staleness
	// audit in E13's deterministic test) order reads against acknowledged
	// writes.  Zero for non-replicated objects.
	Epoch uint64 `json:"epoch,omitempty" xml:"epoch,attr,omitempty"`
}

// ClusterPayload is one node's contribution to a gossip exchange: who it
// is and who it has heard from (membership), what it knows about where
// objects and classes live (the placement directory), which placement
// changes it wants (intents), and the per-object call-affinity evidence
// those intents are judged by.  The payload rides inside ordinary
// requests/responses, so gossip traverses the same multiplexed
// connections as invocations — no second socket, no second protocol.
type ClusterPayload struct {
	// From is the sender's own membership digest.
	From PeerDigest `json:"from" xml:"from"`
	// Peers is the sender's membership view (rumor mill).
	Peers []PeerDigest `json:"peers,omitempty" xml:"peer,omitempty"`
	// Dir is the sender's placement-directory view.
	Dir []DirEntry `json:"dir,omitempty" xml:"dir,omitempty"`
	// Intents are the live placement intents the sender knows of.
	Intents []Intent `json:"intents,omitempty" xml:"intent,omitempty"`
	// Stats are per-object affinity rollups — the cross-node evidence
	// behind multi-hop placement decisions.
	Stats []ObjAffinity `json:"stats,omitempty" xml:"stat,omitempty"`
	// Replicas are the replica-set facts the sender knows of: which
	// objects have read copies, where, under which primary, and at what
	// membership version/write epoch.  Primaries re-announce their sets
	// every tick; receivers merge by (Version, Epoch, Origin).  A gossip
	// exchange whose From digest is a set's primary also renews the
	// receiving replica's read lease (docs/REPLICATION.md).
	Replicas []ReplicaSet `json:"replicas,omitempty" xml:"replicaSet,omitempty"`
}

// PeerDigest is one node's liveness summary as carried by gossip.
type PeerDigest struct {
	// ID is the node's unique cluster identity (its name).
	ID string `json:"id" xml:"id,attr"`
	// Endpoint is the node's cluster endpoint (gossip target).
	Endpoint string `json:"endpoint" xml:"endpoint,attr"`
	// Heartbeat is the node's monotonically increasing liveness counter;
	// a peer whose heartbeat stops advancing becomes suspect, then dead.
	Heartbeat uint64 `json:"heartbeat" xml:"heartbeat,attr"`
	// Leaving marks a deliberate departure (graceful leave), so peers
	// skip the suspicion ladder and drop the node immediately.
	Leaving bool `json:"leaving,omitempty" xml:"leaving,attr,omitempty"`
}

// DirEntry is one versioned placement-directory fact.  For objects, Key
// is the GUID a stale reference may still hold and Ref is where the
// object actually lives now (GUID at its current home); entries chain
// (g1→g2@B, g2→g3@C) and resolution follows the chain, so a caller N
// migrations behind still reaches the final home in one hop.  For
// classes, Key is "class:Name" and Ref.Endpoint is the placement every
// member converges on (Version plays the policy-epoch role).
type DirEntry struct {
	Key string `json:"key" xml:"key,attr"`
	// Ref is the entry's current target (object: live GUID + home;
	// class: placement endpoint, "" GUID).
	Ref RemoteRef `json:"ref" xml:"ref"`
	// Version orders conflicting entries for one Key: higher wins;
	// equal versions tie-break on Origin.
	Version uint64 `json:"version" xml:"version,attr"`
	// Origin is the node id that produced this version.
	Origin string `json:"origin" xml:"origin,attr"`
}

// Intent is one proposed migration: move the object exported under GUID
// from its current home to To.  Any member may propose — including a
// third party A proposing B→C (multi-hop) — and conflicting intents for
// one object reconcile deterministically: highest Priority wins, ties
// break on lexicographically smaller Proposer id, then smaller To.  The
// object's home executes the winner once it has been stable for the
// settle period.
type Intent struct {
	GUID  string `json:"guid" xml:"guid,attr"`
	Class string `json:"class,omitempty" xml:"class,attr,omitempty"`
	// From is the object's home endpoint as the proposer believed it.
	From string `json:"from" xml:"from,attr"`
	// To is the proposed destination endpoint.
	To string `json:"to" xml:"to,attr"`
	// Proposer is the proposing node's id.
	Proposer string `json:"proposer" xml:"proposer,attr"`
	// Priority is the evidence strength (typically the dominant caller's
	// window call count); higher wins reconciliation.
	Priority int64 `json:"priority" xml:"priority,attr"`
	// Reason is a human-readable justification for logs.
	Reason string `json:"reason,omitempty" xml:"reason,omitempty"`
}

// ObjAffinity is one hosted object's caller-affinity rollup as gossiped
// by its home node: how many calls it received in the rollup window and
// which endpoints they came from.  It is the evidence a third node needs
// to propose a multi-hop migration.
type ObjAffinity struct {
	GUID  string `json:"guid" xml:"guid,attr"`
	Class string `json:"class,omitempty" xml:"class,attr,omitempty"`
	// Home is the endpoint hosting the object.
	Home string `json:"home" xml:"home,attr"`
	// Calls is the rollup window's total inbound invocation count.
	Calls uint64 `json:"calls" xml:"calls,attr"`
	// Callers itemises the window's calls by caller endpoint.
	Callers []EndpointCount `json:"callers,omitempty" xml:"caller,omitempty"`
}

// ReplicaSet is one replicated object's membership fact as gossiped by
// its primary: the primary's exported GUID (the set's identity), where
// the primary lives, the read copies, and the ordering coordinates.
// Version orders membership changes (replica added/evicted, primary
// promoted) — higher wins a merge; Epoch orders writes within a
// membership and breaks Version ties; equal (Version, Epoch) ties break
// on greater Origin, mirroring the placement directory.
type ReplicaSet struct {
	// GUID is the primary's exported GUID — the key callers resolve.
	GUID  string `json:"guid" xml:"guid,attr"`
	Class string `json:"class,omitempty" xml:"class,attr,omitempty"`
	// Primary is the endpoint serialising writes and granting leases.
	Primary string `json:"primary" xml:"primary,attr"`
	// Epoch is the last write epoch the primary has acknowledged.
	Epoch uint64 `json:"epoch" xml:"epoch,attr"`
	// Version is the set-membership version; bumped on every replica
	// add/evict and on primary promotion.
	Version uint64 `json:"version" xml:"version,attr"`
	// Origin is the node id that produced this version.
	Origin string `json:"origin" xml:"origin,attr"`
	// Replicas are the read copies (the primary is not listed).
	Replicas []ReplicaInfo `json:"replicas,omitempty" xml:"replica,omitempty"`
}

// ReplicaInfo locates one read copy: the node serving it and the GUID
// the copy is exported under there.
type ReplicaInfo struct {
	Endpoint string `json:"endpoint" xml:"endpoint,attr"`
	GUID     string `json:"guid" xml:"guid,attr"`
}

// EndpointCount is one (endpoint, count) pair in an affinity rollup.
type EndpointCount struct {
	Endpoint string `json:"endpoint" xml:"endpoint,attr"`
	Calls    uint64 `json:"calls" xml:"calls,attr"`
}

// Errorf builds an infrastructure-error response for req.
func Errorf(req *Request, format string, a ...any) *Response {
	return &Response{ID: req.ID, Err: fmt.Sprintf(format, a...)}
}
