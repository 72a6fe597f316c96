package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"encoding/xml"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func randomValue(r *rand.Rand, depth int) Value {
	switch k := r.Intn(8); {
	case k == 0:
		return Value{Kind: KVoid}
	case k == 1:
		return Value{Kind: KNull}
	case k == 2:
		return Value{Kind: KBool, Bool: r.Intn(2) == 1}
	case k == 3:
		return Value{Kind: KInt, Int: r.Int63() - r.Int63()}
	case k == 4:
		return Value{Kind: KFloat, Float: r.NormFloat64()}
	case k == 5:
		return Value{Kind: KString, Str: randString(r)}
	case k == 6:
		return Value{Kind: KRef, Ref: &RemoteRef{
			GUID:     randString(r),
			Endpoint: "rrp://127.0.0.1:1",
			Target:   "C",
		}}
	default:
		if depth <= 0 {
			return Value{Kind: KInt, Int: 7}
		}
		n := r.Intn(4)
		v := Value{Kind: KArray, Elem: "I"}
		for i := 0; i < n; i++ {
			v.Arr = append(v.Arr, randomValue(r, depth-1))
		}
		return v
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + r.Intn(90))
	}
	return string(b)
}

func randomRequest(r *rand.Rand) *Request {
	req := &Request{
		ID:       r.Uint64(),
		Op:       Op(1 + r.Intn(6)),
		GUID:     randString(r),
		Class:    randString(r),
		Method:   randString(r),
		Endpoint: randString(r),
		Caller:   randString(r),
	}
	for i := 0; i < r.Intn(4); i++ {
		req.Args = append(req.Args, randomValue(r, 2))
	}
	for i := 0; i < r.Intn(3); i++ {
		req.Fields = append(req.Fields, NamedValue{Name: randString(r), Value: randomValue(r, 1)})
	}
	if r.Intn(2) == 1 {
		req.Token = &CallToken{Caller: randString(r), Seq: r.Uint64(),
			Attempt: uint32(r.Intn(5)), Ack: r.Uint64()}
		for i := 0; i < r.Intn(3); i++ {
			resp := Response{ID: r.Uint64(), Result: randomValue(r, 1), Err: randString(r)}
			if r.Intn(2) == 1 {
				resp.Epoch = r.Uint64()
			}
			req.Dedup = append(req.Dedup, DedupEntry{
				Caller: randString(r), Seq: r.Uint64(), Resp: resp,
			})
		}
	}
	if r.Intn(2) == 1 {
		req.Epoch = r.Uint64()
	}
	if r.Intn(2) == 1 {
		req.Trace = TraceContext{Trace: r.Uint64(), Span: r.Uint64()}
		req.DeadlineUs = r.Uint64()
		req.Priority = r.Uint32()
	}
	return req
}

func randomCluster(r *rand.Rand) *ClusterPayload {
	digest := func() PeerDigest {
		return PeerDigest{ID: randString(r), Endpoint: randString(r),
			Heartbeat: r.Uint64(), Leaving: r.Intn(4) == 0}
	}
	c := &ClusterPayload{From: digest()}
	for i := 0; i < r.Intn(4); i++ {
		c.Peers = append(c.Peers, digest())
	}
	for i := 0; i < r.Intn(4); i++ {
		c.Dir = append(c.Dir, DirEntry{
			Key:     randString(r),
			Ref:     RemoteRef{GUID: randString(r), Endpoint: randString(r), Target: randString(r)},
			Version: r.Uint64(),
			Origin:  randString(r),
		})
	}
	for i := 0; i < r.Intn(3); i++ {
		c.Intents = append(c.Intents, Intent{
			GUID: randString(r), Class: randString(r), From: randString(r),
			To: randString(r), Proposer: randString(r),
			Priority: r.Int63() - r.Int63(), Reason: randString(r),
		})
	}
	for i := 0; i < r.Intn(3); i++ {
		s := ObjAffinity{GUID: randString(r), Class: randString(r),
			Home: randString(r), Calls: r.Uint64()}
		for j := 0; j < r.Intn(3); j++ {
			s.Callers = append(s.Callers, EndpointCount{Endpoint: randString(r), Calls: r.Uint64()})
		}
		c.Stats = append(c.Stats, s)
	}
	for i := 0; i < r.Intn(3); i++ {
		rs := ReplicaSet{GUID: randString(r), Class: randString(r),
			Primary: randString(r), Epoch: r.Uint64(), Version: r.Uint64(),
			Origin: randString(r)}
		for j := 0; j < r.Intn(3); j++ {
			rs.Replicas = append(rs.Replicas, ReplicaInfo{Endpoint: randString(r), GUID: randString(r)})
		}
		c.Replicas = append(c.Replicas, rs)
	}
	return c
}

// TestBinaryClusterRoundTripProperty covers the gossip payload section of
// the codec on both message directions: OpGossip requests carry the
// sender's payload, their responses the receiver's.
func TestBinaryClusterRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		req := &Request{ID: r.Uint64(), Op: OpGossip, Cluster: randomCluster(r)}
		back, err := DecodeRequestBytes(AppendRequest(nil, req))
		if err != nil || !reflect.DeepEqual(req, back) {
			return false
		}
		resp := &Response{ID: req.ID, Cluster: randomCluster(r)}
		bresp, err := DecodeResponseBytes(AppendResponse(nil, resp))
		return err == nil && reflect.DeepEqual(resp, bresp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPayloadHTTPCodecs checks the gossip payload survives the
// textual transports too (soap carries XML, json carries JSON): gossip
// must work over whichever protocol a peer serves.
func TestClusterPayloadHTTPCodecs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		req := &Request{ID: r.Uint64(), Op: OpGossip, Cluster: randomCluster(r)}
		jb, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		jback := &Request{}
		if err := json.Unmarshal(jb, jback); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Cluster, jback.Cluster) {
			t.Fatalf("json cluster round trip:\n%+v\n%+v", req.Cluster, jback.Cluster)
		}
		xb, err := xml.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		xback := &Request{}
		if err := xml.Unmarshal(xb, xback); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Cluster, xback.Cluster) {
			t.Fatalf("xml cluster round trip:\n%+v\n%+v\n%s", req.Cluster, xback.Cluster, xb)
		}
	}
}

func TestBinaryRequestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		req := randomRequest(r)
		back, err := DecodeRequestBytes(AppendRequest(nil, req))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(req, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryResponseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		resp := &Response{
			ID:      r.Uint64(),
			Result:  randomValue(r, 2),
			ExClass: randString(r),
			ExMsg:   randString(r),
			Err:     randString(r),
		}
		if r.Intn(2) == 1 {
			resp.Redirect = &RemoteRef{
				GUID:     randString(r),
				Endpoint: "rrp://127.0.0.1:2",
				Target:   randString(r),
			}
		}
		if r.Intn(2) == 1 {
			resp.Epoch = r.Uint64()
		}
		back, err := DecodeResponseBytes(AppendResponse(nil, resp))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(resp, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		req := randomRequest(r)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back := &Request{}
		if err := json.Unmarshal(b, back); err != nil {
			t.Fatal(err)
		}
		if !requestsEquivalent(req, back) {
			t.Fatalf("json round trip:\n%+v\n%+v", req, back)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		req := randomRequest(r)
		b, err := xml.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back := &Request{}
		if err := xml.Unmarshal(b, back); err != nil {
			t.Fatal(err)
		}
		if !requestsEquivalent(req, back) {
			t.Fatalf("xml round trip:\n%+v\n%+v\n%s", req, back, b)
		}
	}
}

// requestsEquivalent compares requests modulo representation quirks the
// textual codecs have (e.g. empty slices decoding as nil).
func requestsEquivalent(a, b *Request) bool {
	if a.ID != b.ID || a.Op != b.Op || a.GUID != b.GUID ||
		a.Class != b.Class || a.Method != b.Method || a.Endpoint != b.Endpoint {
		return false
	}
	if len(a.Args) != len(b.Args) || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Args {
		if !valuesEquivalent(&a.Args[i], &b.Args[i]) {
			return false
		}
	}
	for i := range a.Fields {
		if a.Fields[i].Name != b.Fields[i].Name ||
			!valuesEquivalent(&a.Fields[i].Value, &b.Fields[i].Value) {
			return false
		}
	}
	return true
}

func valuesEquivalent(a, b *Value) bool {
	if a.Kind != b.Kind || a.Bool != b.Bool || a.Int != b.Int ||
		a.Float != b.Float || a.Str != b.Str || a.Elem != b.Elem {
		return false
	}
	if (a.Ref == nil) != (b.Ref == nil) {
		return false
	}
	if a.Ref != nil && *a.Ref != *b.Ref {
		return false
	}
	if len(a.Arr) != len(b.Arr) {
		return false
	}
	for i := range a.Arr {
		if !valuesEquivalent(&a.Arr[i], &b.Arr[i]) {
			return false
		}
	}
	return true
}

// TestBytesCodecRoundTripProperty round-trips randomised requests and
// responses through the pooled-buffer fast path (AppendRequest /
// DecodeRequestBytes) — the encoding the RRP transport actually uses —
// over randomised Value trees including KRef, nested KArray and empty
// strings.
func TestBytesCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		req := randomRequest(r)
		// Encode with headroom, as the transport does, then decode the
		// payload portion only.
		buf := AppendRequest(make([]byte, 8), req)
		back, err := DecodeRequestBytes(buf[8:])
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(req, back) {
			return false
		}
		resp := &Response{ID: r.Uint64(), Result: randomValue(r, 3), Err: randString(r)}
		rback, err := DecodeResponseBytes(AppendResponse(nil, resp))
		return err == nil && reflect.DeepEqual(resp, rback)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestBytesCodecEdgeValues covers the explicit shapes the transport
// depends on: empty strings everywhere, refs, deep arrays.
func TestBytesCodecEdgeValues(t *testing.T) {
	req := &Request{
		ID: 0, Op: OpInvoke, GUID: "", Class: "", Method: "",
		Args: []Value{
			{Kind: KString, Str: ""},
			{Kind: KRef, Ref: &RemoteRef{GUID: "", Endpoint: "", Target: ""}},
			{Kind: KArray, Elem: "I", Arr: []Value{
				{Kind: KArray, Elem: "S", Arr: []Value{{Kind: KString, Str: ""}}},
				{Kind: KNull},
			}},
		},
		Endpoint: "",
	}
	back, err := DecodeRequestBytes(AppendRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("edge round trip:\n%+v\n%+v", req, back)
	}
}

// nestedArrays is depth one-element arrays around a null.
func nestedArrays(depth int) Value {
	v := Value{Kind: KNull}
	for range depth {
		v = Value{Kind: KArray, Elem: "[I", Arr: []Value{v}}
	}
	return v
}

// TestArrayNestingBounded: the decoder recurses once per array level,
// so nesting is capped at 255 levels (the JVM's array-dimension limit)
// in requests, dedup-embedded responses and responses alike.  Deeper
// frames are rejected with an error instead of exhausting the stack; a
// hand-built 3 MiB frame of a million levels is turned away at level
// 256.
func TestArrayNestingBounded(t *testing.T) {
	for _, c := range []struct {
		depth int
		ok    bool
	}{{255, true}, {256, false}} {
		req := &Request{ID: 1, Op: OpInvoke, GUID: "g#1", Method: "m",
			Args: []Value{nestedArrays(c.depth)}}
		back, err := DecodeRequestBytes(AppendRequest(nil, req))
		if c.ok && (err != nil || !reflect.DeepEqual(req, back)) {
			t.Fatalf("request with %d nested arrays: %v", c.depth, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("request with %d nested arrays accepted", c.depth)
		}
		resp := &Response{ID: 1, Result: nestedArrays(c.depth)}
		migrate := &Request{ID: 2, Op: OpMigrateIn, Class: "C",
			Dedup: []DedupEntry{{Caller: "n!1", Seq: 1, Resp: *resp}}}
		if _, err := DecodeRequestBytes(AppendRequest(nil, migrate)); (err == nil) != c.ok {
			t.Fatalf("dedup response with %d nested arrays: err=%v", c.depth, err)
		}
		if _, err := DecodeResponseBytes(AppendResponse(nil, resp)); (err == nil) != c.ok {
			t.Fatalf("response with %d nested arrays: err=%v", c.depth, err)
		}
	}
	if _, err := DecodeRequestBytes(deepArrayFrame(1 << 20)); err == nil {
		t.Fatal("a million nested arrays accepted")
	}
}

// deepArrayFrame is a request frame whose one argument nests depth
// one-element arrays, built without recursion.
func deepArrayFrame(depth int) []byte {
	level := appendString([]byte{byte(KArray)}, "")
	level = appendUvarint(level, 1)
	return hostileArgsFrame(1, append(bytes.Repeat(level, depth), byte(KNull)))
}

func TestDecodeBytesRejectsTrailingGarbage(t *testing.T) {
	b := AppendResponse(nil, &Response{ID: 3})
	if _, err := DecodeResponseBytes(append(b, 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	breq := AppendRequest(nil, &Request{ID: 4, Op: OpPing})
	if _, err := DecodeRequestBytes(append(breq, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestTraceExtensionInterop checks the span context rides both HTTP
// carriers: it round-trips through JSON and through XML.
func TestTraceExtensionInterop(t *testing.T) {
	traced := Request{ID: 11, Op: OpInvoke, GUID: "g#1", Method: "m",
		Token: &CallToken{Caller: "n!1", Seq: 3}, Epoch: 5,
		Trace: TraceContext{Trace: 0xabcdef, Span: 0x1234}}
	jb, err := json.Marshal(&traced)
	if err != nil {
		t.Fatal(err)
	}
	var jback Request
	if err := json.Unmarshal(jb, &jback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Trace, jback.Trace) {
		t.Fatalf("json trace round trip: %+v", jback.Trace)
	}
	xb, err := xml.Marshal(&traced)
	if err != nil {
		t.Fatal(err)
	}
	var xback Request
	if err := xml.Unmarshal(xb, &xback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Trace, xback.Trace) {
		t.Fatalf("xml trace round trip: %+v", xback.Trace)
	}
}

// TestTokenHTTPCodecs checks the token rides the SOAP/JSON carriers: the
// whole-struct marshal picks up the optional fields for free, and their
// absence round-trips as nil for untokened payloads.
func TestTokenHTTPCodecs(t *testing.T) {
	req := &Request{ID: 1, Op: OpInvoke, GUID: "g", Method: "m",
		Token: &CallToken{Caller: "n!2", Seq: 4, Ack: 2},
		Dedup: []DedupEntry{{Caller: "n!2", Seq: 3, Resp: Response{ID: 8}}}}
	jb, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var jback Request
	if err := json.Unmarshal(jb, &jback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Token, jback.Token) || len(jback.Dedup) != 1 {
		t.Fatalf("json token round trip: %+v", jback)
	}
	xb, err := xml.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var xback Request
	if err := xml.Unmarshal(xb, &xback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Token, xback.Token) {
		t.Fatalf("xml token round trip: %+v\n%s", xback.Token, xb)
	}
	// An untokened payload omits the fields.
	var lback Request
	if err := json.Unmarshal([]byte(`{"id":1,"op":2,"guid":"g"}`), &lback); err != nil {
		t.Fatal(err)
	}
	if lback.Token != nil {
		t.Fatal("token materialised from untokened json")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	req := &Request{ID: 1, Op: OpInvoke, GUID: "g", Method: "m",
		Args: []Value{{Kind: KString, Str: "payload-payload"}}}
	full := AppendRequest(nil, req)
	for cut := 1; cut < len(full)-1; cut += 3 {
		if _, err := DecodeRequestBytes(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

var benchReq = &Request{ID: 1, Op: OpInvoke, GUID: "obj-42", Method: "add",
	Args: []Value{{Kind: KInt, Int: 20}, {Kind: KInt, Int: 22}}}

// BenchmarkSeedEncodeChain reproduces the pre-pooling per-call
// allocation stack the RRP transport used to pay: encode through a
// bufio.Writer into a bytes.Buffer, concatenate header+payload into a
// fresh frame slice, and decode through bytes.Reader+bufio.Reader
// wrappers.  Kept as the baseline the pooled path is measured against.
func BenchmarkSeedEncodeChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if _, err := bw.Write(AppendRequest(nil, benchReq)); err != nil {
			b.Fatal(err)
		}
		bw.Flush()
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(buf.Len()))
		frame := make([]byte, 0, n+buf.Len())
		frame = append(frame, hdr[:n]...)
		frame = append(frame, buf.Bytes()...)
		payload, err := io.ReadAll(bufio.NewReader(bytes.NewReader(frame[n:])))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRequestBytes(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPooledEncodeChain is the framing the RRP transport uses now:
// encode into a pooled buffer after reserved length-prefix headroom,
// write the prefix in place, decode straight from the frame bytes.
func BenchmarkPooledEncodeChain(b *testing.B) {
	const headroom = binary.MaxVarintLen64
	pool := sync.Pool{New: func() any { s := make([]byte, 0, 4096); return &s }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bufp := pool.Get().(*[]byte)
		buf := AppendRequest((*bufp)[:headroom], benchReq)
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(len(buf)-headroom))
		copy(buf[headroom-n:], hdr[:n])
		frame := buf[headroom-n:]
		if _, err := DecodeRequestBytes(frame[n:]); err != nil {
			b.Fatal(err)
		}
		*bufp = buf[:0]
		pool.Put(bufp)
	}
}

func TestErrorfHelper(t *testing.T) {
	req := &Request{ID: 77}
	resp := Errorf(req, "boom %d", 9)
	if resp.ID != 77 || resp.Err != "boom 9" {
		t.Fatalf("%+v", resp)
	}
}

func TestOpAndKindStrings(t *testing.T) {
	for _, o := range []Op{OpInvoke, OpCreate, OpMigrateIn, OpPing, OpMigrateOut, Op(99)} {
		if o.String() == "" {
			t.Error("empty op string")
		}
	}
	for _, k := range []ValueKind{KVoid, KNull, KBool, KInt, KFloat, KString, KRef, KArray, ValueKind(77)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}
