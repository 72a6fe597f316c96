package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec used by the RRP transport: varint integers,
// length-prefixed strings, recursive values.  Frames are written with an
// outer uvarint length by the transport.  Every field of a message is
// always present, in the fixed order of DESIGN.md's "Message encoding"
// grammar; the layout belongs to one build, and no compatibility across
// builds is promised.
//
// The primary entry points are the allocation-free Append/DecodeBytes
// pairs: AppendRequest/AppendResponse encode directly into a caller-owned
// byte slice (typically a sync.Pool-recycled frame buffer with headroom
// reserved for the transport's length prefix), and
// DecodeRequestBytes/DecodeResponseBytes read straight from a frame
// without intermediate readers.  A decoded request is one allocation
// when its token and arguments fit the inline storage (see reqStore).
// Decoded messages never alias the input slice: every string is either
// copied or, for the identifiers a StringTable interns, shared from that
// bounded per-connection table, so frame buffers can be recycled
// immediately after decoding.

// AppendRequest appends req's encoding to dst and returns the extended
// slice.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = appendUvarint(dst, req.ID)
	dst = appendUvarint(dst, uint64(req.Op))
	dst = appendString(dst, req.GUID)
	dst = appendString(dst, req.Class)
	dst = appendString(dst, req.Method)
	dst = appendUvarint(dst, uint64(len(req.Args)))
	for i := range req.Args {
		dst = appendValue(dst, &req.Args[i])
	}
	dst = appendUvarint(dst, uint64(len(req.Fields)))
	for i := range req.Fields {
		dst = appendString(dst, req.Fields[i].Name)
		dst = appendValue(dst, &req.Fields[i].Value)
	}
	dst = appendString(dst, req.Endpoint)
	dst = appendString(dst, req.Caller)
	dst = appendCluster(dst, req.Cluster)
	if req.Token == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendToken(dst, req.Token)
	}
	dst = appendUvarint(dst, uint64(len(req.Dedup)))
	for i := range req.Dedup {
		e := &req.Dedup[i]
		dst = appendString(dst, e.Caller)
		dst = appendUvarint(dst, e.Seq)
		dst = AppendResponse(dst, &e.Resp)
	}
	dst = appendUvarint(dst, req.Epoch)
	dst = appendUvarint(dst, req.Trace.Trace)
	dst = appendUvarint(dst, req.Trace.Span)
	dst = appendUvarint(dst, req.DeadlineUs)
	return appendUvarint(dst, uint64(req.Priority))
}

func appendToken(dst []byte, t *CallToken) []byte {
	dst = appendString(dst, t.Caller)
	dst = appendUvarint(dst, t.Seq)
	dst = appendUvarint(dst, uint64(t.Attempt))
	return appendUvarint(dst, t.Ack)
}

// AppendResponse appends resp's encoding to dst and returns the extended
// slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = appendUvarint(dst, resp.ID)
	dst = appendValue(dst, &resp.Result)
	dst = appendString(dst, resp.ExClass)
	dst = appendString(dst, resp.ExMsg)
	dst = appendString(dst, resp.Err)
	dst = appendRef(dst, resp.Redirect)
	dst = appendCluster(dst, resp.Cluster)
	return appendUvarint(dst, resp.Epoch)
}

// appendRef encodes an optional RemoteRef as a presence byte plus the
// reference's body.
func appendRef(dst []byte, ref *RemoteRef) []byte {
	if ref == nil {
		return append(dst, 0)
	}
	return appendRefBody(append(dst, 1), ref)
}

// appendRefBody encodes a reference's fields: the one body a KRef value
// and an optional reference share.
func appendRefBody(dst []byte, ref *RemoteRef) []byte {
	dst = appendString(dst, ref.GUID)
	dst = appendString(dst, ref.Endpoint)
	return appendString(dst, ref.Target)
}

// DecodeRequestBytes decodes exactly one request from b.  Trailing bytes
// are a protocol error: a frame delimits one message.
func DecodeRequestBytes(b []byte) (*Request, error) { return decodeRequest(b, nil) }

// reqStore is a decoded request together with the storage its token and
// up to inlineArgs arguments need, so the common invocation decodes in
// one allocation: Token points into it and Args slices it.
type reqStore struct {
	req  Request
	tok  CallToken
	args [inlineArgs]Value
}

const (
	// inlineArgs is how many arguments a decoded request carries without
	// a separate slice allocation.
	inlineArgs = 2
	// maxPresize caps how many arguments are allocated before any of
	// them decodes (88 KiB of Values).
	maxPresize = 1024
)

func decodeRequest(b []byte, strs *StringTable) (*Request, error) {
	d := &bdec{b: b, strs: strs}
	s := &reqStore{}
	req := &s.req
	req.ID = d.u64()
	req.Op = Op(d.u64())
	req.GUID = d.ident()
	req.Class = d.ident()
	req.Method = d.ident()
	n := d.u64()
	// Every value takes at least one byte, so a count the rest of the
	// frame cannot hold is malformed, as is one over maxSeq.  Both are
	// rejected before they size anything.
	if d.err == nil && (n > maxSeq || n > uint64(len(d.b)-d.off)) {
		return nil, fmt.Errorf("args length %d too large for the %d bytes left in the frame", n, len(d.b)-d.off)
	}
	switch {
	case n == 0:
	case n <= inlineArgs:
		req.Args = s.args[:0:n]
	default:
		// Sized once from the declared count, up to maxPresize: a large
		// count over garbage bytes then costs at most that much before
		// decoding fails, and a genuinely long list grows past it.
		req.Args = make([]Value, 0, min(n, maxPresize))
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		req.Args = append(req.Args, d.value(0))
	}
	n = d.u64()
	if d.err == nil && n > maxSeq {
		return nil, fmt.Errorf("fields length %d too large", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		nv := NamedValue{Name: d.str()}
		nv.Value = d.value(0)
		req.Fields = append(req.Fields, nv)
	}
	req.Endpoint = d.str()
	req.Caller = d.ident()
	req.Cluster = d.cluster()
	if d.boolean() {
		req.Token = d.token(&s.tok)
	}
	n = d.u64()
	if d.err == nil && n > maxSeq {
		return nil, fmt.Errorf("dedup list length %d too large", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		e := DedupEntry{Caller: d.str(), Seq: d.u64()}
		d.response(&e.Resp)
		req.Dedup = append(req.Dedup, e)
	}
	req.Epoch = d.u64()
	req.Trace = TraceContext{Trace: d.u64(), Span: d.u64()}
	req.DeadlineUs = d.u64()
	// A class past uint32 clamps to the highest rather than truncating
	// into a surprise low one.
	req.Priority = uint32(min(d.u64(), math.MaxUint32))
	if err := d.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeResponseBytes decodes exactly one response from b.
func DecodeResponseBytes(b []byte) (*Response, error) {
	d := &bdec{b: b}
	resp := &Response{}
	d.response(resp)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// response decodes a response written by AppendResponse.  Responses are
// self-delimiting, so a dedup entry embeds one directly.
func (d *bdec) response(resp *Response) {
	resp.ID = d.u64()
	resp.Result = d.value(0)
	resp.ExClass = d.str()
	resp.ExMsg = d.str()
	resp.Err = d.str()
	resp.Redirect = d.ref()
	resp.Cluster = d.cluster()
	resp.Epoch = d.u64()
}

// token decodes a CallToken written by appendToken into t.
func (d *bdec) token(t *CallToken) *CallToken {
	t.Caller = d.ident()
	t.Seq = d.u64()
	t.Attempt = uint32(d.u64())
	t.Ack = d.u64()
	if d.err != nil {
		return nil
	}
	return t
}

const maxSeq = 1 << 24

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendValue(dst []byte, v *Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Kind))
	switch v.Kind {
	case KBool:
		dst = appendBool(dst, v.Bool)
	case KInt:
		dst = binary.AppendVarint(dst, v.Int)
	case KFloat:
		dst = binary.AppendUvarint(dst, math.Float64bits(v.Float))
	case KString:
		dst = appendString(dst, v.Str)
	case KRef:
		dst = appendRefBody(dst, v.Ref)
	case KArray:
		dst = appendString(dst, v.Elem)
		dst = binary.AppendUvarint(dst, uint64(len(v.Arr)))
		for i := range v.Arr {
			dst = appendValue(dst, &v.Arr[i])
		}
	}
	return dst
}

// appendCluster encodes an optional gossip payload as a presence byte
// plus its sections.
func appendCluster(dst []byte, c *ClusterPayload) []byte {
	if c == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendDigest(dst, &c.From)
	dst = appendUvarint(dst, uint64(len(c.Peers)))
	for i := range c.Peers {
		dst = appendDigest(dst, &c.Peers[i])
	}
	dst = appendUvarint(dst, uint64(len(c.Dir)))
	for i := range c.Dir {
		e := &c.Dir[i]
		dst = appendString(dst, e.Key)
		dst = appendRef(dst, &e.Ref)
		dst = appendUvarint(dst, e.Version)
		dst = appendString(dst, e.Origin)
	}
	dst = appendUvarint(dst, uint64(len(c.Intents)))
	for i := range c.Intents {
		in := &c.Intents[i]
		dst = appendString(dst, in.GUID)
		dst = appendString(dst, in.Class)
		dst = appendString(dst, in.From)
		dst = appendString(dst, in.To)
		dst = appendString(dst, in.Proposer)
		dst = binary.AppendVarint(dst, in.Priority)
		dst = appendString(dst, in.Reason)
	}
	dst = appendUvarint(dst, uint64(len(c.Stats)))
	for i := range c.Stats {
		s := &c.Stats[i]
		dst = appendString(dst, s.GUID)
		dst = appendString(dst, s.Class)
		dst = appendString(dst, s.Home)
		dst = appendUvarint(dst, s.Calls)
		dst = appendUvarint(dst, uint64(len(s.Callers)))
		for j := range s.Callers {
			dst = appendString(dst, s.Callers[j].Endpoint)
			dst = appendUvarint(dst, s.Callers[j].Calls)
		}
	}
	dst = appendUvarint(dst, uint64(len(c.Replicas)))
	for i := range c.Replicas {
		rs := &c.Replicas[i]
		dst = appendString(dst, rs.GUID)
		dst = appendString(dst, rs.Class)
		dst = appendString(dst, rs.Primary)
		dst = appendUvarint(dst, rs.Epoch)
		dst = appendUvarint(dst, rs.Version)
		dst = appendString(dst, rs.Origin)
		dst = appendUvarint(dst, uint64(len(rs.Replicas)))
		for j := range rs.Replicas {
			dst = appendString(dst, rs.Replicas[j].Endpoint)
			dst = appendString(dst, rs.Replicas[j].GUID)
		}
	}
	return dst
}

func appendDigest(dst []byte, p *PeerDigest) []byte {
	dst = appendString(dst, p.ID)
	dst = appendString(dst, p.Endpoint)
	dst = appendUvarint(dst, p.Heartbeat)
	return appendBool(dst, p.Leaving)
}

// StringTable interns the identifiers of the requests one connection
// decodes — object GUIDs, class and method names, caller endpoints and
// token callers: a hit shares the table's string instead of copying the
// frame's bytes.  It pays off when a connection keeps reusing a working
// set of fewer than maxInterned identifiers; that is an assumption about
// the traffic, not a guarantee.  It is bounded: at most maxInterned
// entries of at most maxInternLen bytes each.  A longer string is
// copied, exactly as DecodeRequestBytes does, and a full table is
// dropped before the next insert, so it follows the current working set
// rather than keeping the first identifiers it saw (a connection cycling
// through more identifiers re-copies its working set once per fill).
// The zero value is ready to use.  A table is not safe for concurrent
// use — the connection's read loop owns it — but the strings it hands
// out are ordinary immutable strings, safe anywhere.
type StringTable struct {
	m map[string]string
}

const (
	// maxInterned bounds a table's entries, so a peer cycling through
	// distinct identifiers costs at most this many strings per connection.
	maxInterned = 512
	// maxInternLen bounds an interned string's length: identifiers are
	// short, and a long string is unlikely to repeat.
	maxInternLen = 64
)

// DecodeRequest is DecodeRequestBytes with the request's identifiers
// interned in t.
func (t *StringTable) DecodeRequest(b []byte) (*Request, error) { return decodeRequest(b, t) }

// intern returns b as a string, shared from the table when present and
// otherwise added to it, emptying the table first if it is full.
func (t *StringTable) intern(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok { // the lookup's conversion does not allocate
		return s
	}
	s := string(b)
	if t.m == nil {
		t.m = make(map[string]string)
	} else if len(t.m) >= maxInterned {
		clear(t.m)
	}
	t.m[s] = s
	return s
}

// bdec decodes from a byte slice with sticky errors.
type bdec struct {
	b    []byte
	off  int
	err  error
	strs *StringTable // interns ident() strings; nil copies them
}

func (d *bdec) fail(format string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, a...)
	}
}

func (d *bdec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%d trailing bytes after message", len(d.b)-d.off)
	}
	return nil
}

func (d *bdec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) str() string {
	// string() copies, so the decoded message never aliases the frame.
	return string(d.strBytes())
}

// ident decodes a string that names something — a GUID, class, method
// or caller — interning it when the decoder has a table.
func (d *bdec) ident() string {
	b := d.strBytes()
	if d.strs == nil {
		return string(b)
	}
	return d.strs.intern(b)
}

// strBytes reads a length-prefixed string's bytes, aliasing the frame.
func (d *bdec) strBytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxSeq {
		d.fail("string length %d too large", n)
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("truncated string at offset %d", d.off)
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *bdec) boolean() bool { return d.u64() != 0 }

// ref decodes an optional RemoteRef written by appendRef.
func (d *bdec) ref() *RemoteRef {
	if !d.boolean() {
		return nil
	}
	r := d.refBody()
	if d.err != nil {
		return nil
	}
	return &r
}

// refBody decodes a reference's fields written by appendRefBody.
func (d *bdec) refBody() RemoteRef {
	return RemoteRef{GUID: d.str(), Endpoint: d.str(), Target: d.str()}
}

// cluster decodes an optional gossip payload written by appendCluster.
func (d *bdec) cluster() *ClusterPayload {
	if !d.boolean() {
		return nil
	}
	c := &ClusterPayload{From: d.digest()}
	n := d.u64()
	if d.err == nil && n > maxSeq {
		d.fail("peer list length %d too large", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		c.Peers = append(c.Peers, d.digest())
	}
	n = d.u64()
	if d.err == nil && n > maxSeq {
		d.fail("directory length %d too large", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		e := DirEntry{Key: d.str()}
		if r := d.ref(); r != nil {
			e.Ref = *r
		}
		e.Version = d.u64()
		e.Origin = d.str()
		c.Dir = append(c.Dir, e)
	}
	n = d.u64()
	if d.err == nil && n > maxSeq {
		d.fail("intent list length %d too large", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		c.Intents = append(c.Intents, Intent{
			GUID: d.str(), Class: d.str(), From: d.str(), To: d.str(),
			Proposer: d.str(), Priority: d.i64(), Reason: d.str(),
		})
	}
	n = d.u64()
	if d.err == nil && n > maxSeq {
		d.fail("stats list length %d too large", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		s := ObjAffinity{GUID: d.str(), Class: d.str(), Home: d.str(), Calls: d.u64()}
		m := d.u64()
		if d.err == nil && m > maxSeq {
			d.fail("caller list length %d too large", m)
			return nil
		}
		for j := uint64(0); j < m && d.err == nil; j++ {
			s.Callers = append(s.Callers, EndpointCount{Endpoint: d.str(), Calls: d.u64()})
		}
		c.Stats = append(c.Stats, s)
	}
	n = d.u64()
	if d.err == nil && n > maxSeq {
		d.fail("replica list length %d too large", n)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		rs := ReplicaSet{GUID: d.str(), Class: d.str(), Primary: d.str(),
			Epoch: d.u64(), Version: d.u64(), Origin: d.str()}
		m := d.u64()
		if d.err == nil && m > maxSeq {
			d.fail("replica member list length %d too large", m)
			return nil
		}
		for j := uint64(0); j < m && d.err == nil; j++ {
			rs.Replicas = append(rs.Replicas, ReplicaInfo{Endpoint: d.str(), GUID: d.str()})
		}
		c.Replicas = append(c.Replicas, rs)
	}
	if d.err != nil {
		return nil
	}
	return c
}

func (d *bdec) digest() PeerDigest {
	p := PeerDigest{ID: d.str(), Endpoint: d.str(), Heartbeat: d.u64()}
	p.Leaving = d.boolean()
	return p
}

// maxArrayDepth bounds how deeply arrays nest in one value — the JVM's
// array-dimension limit, which ir.ParseDescriptor applies to element
// descriptors too — so a frame of nested one-element arrays cannot
// recurse the decoder off its stack.
const maxArrayDepth = 255

// value decodes one value nested inside depth arrays.
func (d *bdec) value(depth int) Value {
	v := Value{Kind: ValueKind(d.u64())}
	switch v.Kind {
	case KBool:
		v.Bool = d.boolean()
	case KInt:
		v.Int = d.i64()
	case KFloat:
		v.Float = math.Float64frombits(d.u64())
	case KString:
		v.Str = d.str()
	case KRef:
		r := d.refBody()
		v.Ref = &r
	case KArray:
		if depth == maxArrayDepth {
			d.fail("arrays nested deeper than %d", maxArrayDepth)
			return v
		}
		v.Elem = d.str()
		n := d.u64()
		if n > maxSeq {
			d.fail("array length %d too large", n)
			return v
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			v.Arr = append(v.Arr, d.value(depth+1))
		}
	case KVoid, KNull, KInvalid:
	default:
		d.fail("bad value kind %d", v.Kind)
	}
	return v
}
