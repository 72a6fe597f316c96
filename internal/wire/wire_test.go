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
			GUID:      randString(r),
			Endpoint:  "rrp://127.0.0.1:1",
			Proto:     "rrp",
			Target:    "C",
			ClassSide: r.Intn(2) == 1,
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
			Key: randString(r),
			Ref: RemoteRef{GUID: randString(r), Endpoint: randString(r),
				Proto: "rrp", Target: randString(r)},
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
				Proto:    "rrp",
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
			{Kind: KRef, Ref: &RemoteRef{GUID: "", Endpoint: "", Proto: "", Target: "", ClassSide: true}},
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

// TestTokenExtensionLegacyInterop pins the capability contract of the
// token extension: an untokened request encodes to the exact byte
// prefix a tokened one extends — i.e. tokenless frames are
// byte-identical to the pre-extension format, so legacy decoders (which
// reject any trailing bytes) still parse everything an untokened peer
// sends, and the current decoder parses legacy frames as Token == nil.
func TestTokenExtensionLegacyInterop(t *testing.T) {
	base := &Request{ID: 9, Op: OpInvoke, GUID: "g#1", Method: "m",
		Args: []Value{{Kind: KInt, Int: 5}}, Caller: "rrp://c:1"}
	legacy := AppendRequest(nil, base)

	tokened := *base
	tokened.Token = &CallToken{Caller: "n!1", Seq: 7, Attempt: 1, Ack: 3}
	tokened.Dedup = []DedupEntry{{Caller: "n!1", Seq: 6,
		Resp: Response{ID: 2, Result: Value{Kind: KInt, Int: 1}}}}
	ext := AppendRequest(nil, &tokened)

	if !bytes.HasPrefix(ext, legacy) {
		t.Fatal("tokened frame does not extend the legacy encoding byte-for-byte")
	}
	if len(ext) == len(legacy) {
		t.Fatal("token extension emitted no bytes")
	}
	// A legacy frame decodes with no token.
	back, err := DecodeRequestBytes(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if back.Token != nil || back.Dedup != nil {
		t.Fatalf("legacy frame decoded with token state: %+v", back)
	}
	// The tokened frame round-trips the extension.
	back, err = DecodeRequestBytes(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&tokened, back) {
		t.Fatalf("token round trip:\n%+v\n%+v", &tokened, back)
	}
	// A bare unknown tag with no length is a truncated TLV section and
	// still rejected — skipping requires the declared length.
	if _, err := DecodeRequestBytes(append(append([]byte{}, legacy...), 0x7f)); err == nil {
		t.Fatal("truncated unknown extension accepted")
	}
}

// TestUnknownExtensionSkipped pins the forward-compatibility half of
// the TLV grammar: a well-formed extension section with a tag this
// decoder does not know is skipped over its declared length — the rest
// of the frame (including later known extensions) still decodes — so
// peers that predate an extension degrade gracefully instead of
// rejecting traffic from newer nodes.
func TestUnknownExtensionSkipped(t *testing.T) {
	base := &Request{ID: 9, Op: OpInvoke, GUID: "g#1", Method: "m",
		Token: &CallToken{Caller: "n!1", Seq: 7}}
	frame := AppendRequest(nil, base)
	// Append an unknown tag 9 with a 3-byte payload.
	frame = append(frame, 9, 3, 0xde, 0xad, 0xbf)
	back, err := DecodeRequestBytes(frame)
	if err != nil {
		t.Fatalf("well-formed unknown extension rejected: %v", err)
	}
	if back.Token == nil || back.Token.Seq != 7 {
		t.Fatalf("known extension lost while skipping unknown one: %+v", back)
	}

	// Several unknown sections in a row (a frame from a peer two
	// protocol generations ahead) skip independently, and the known
	// sections before them survive intact.
	ahead := &Request{ID: 10, Op: OpReplicaUpdate, GUID: "r#1",
		Token: &CallToken{Caller: "n!1", Seq: 8}, Epoch: 21}
	multi := AppendRequest(nil, ahead)
	multi = append(multi, 9, 2, 0x01, 0x02)
	multi = append(multi, 12, 0) // empty payload is a valid section
	back, err = DecodeRequestBytes(multi)
	if err != nil {
		t.Fatalf("consecutive unknown extensions rejected: %v", err)
	}
	if back.Token == nil || back.Token.Seq != 8 || back.Epoch != 21 {
		t.Fatalf("known extensions lost while skipping unknown ones: %+v", back)
	}

	// Out-of-order and duplicate tags stay protocol errors: skipping is
	// for unknown content, not for malformed framing.
	if _, err := DecodeRequestBytes(append(AppendRequest(nil, base), 0)); err == nil {
		t.Fatal("extension tag 0 accepted")
	}
	dup := AppendRequest(nil, base)
	dup = append(dup, 1, 0)
	if _, err := DecodeRequestBytes(dup); err == nil {
		t.Fatal("duplicate extension tag accepted")
	}
	// Truncated payload (declared length runs past the frame) rejected.
	trunc := AppendRequest(nil, base)
	trunc = append(trunc, 9, 200, 0x00)
	if _, err := DecodeRequestBytes(trunc); err == nil {
		t.Fatal("truncated extension payload accepted")
	}

	// Responses share the grammar.
	rfrm := AppendResponse(nil, &Response{ID: 3, Epoch: 4})
	rfrm = append(rfrm, 7, 1, 0xee)
	rback, err := DecodeResponseBytes(rfrm)
	if err != nil {
		t.Fatalf("unknown response extension rejected: %v", err)
	}
	if rback.Epoch != 4 {
		t.Fatalf("response epoch lost while skipping: %+v", rback)
	}
}

// TestTraceExtensionInterop pins the trace context's capability
// contract, mirroring the token and epoch interop tests: trace-free
// requests encode byte-identically to the pre-trace protocol, and the
// context rides after the token and epoch sections in tag order.
func TestTraceExtensionInterop(t *testing.T) {
	base := &Request{ID: 11, Op: OpInvoke, GUID: "g#1", Method: "m",
		Token: &CallToken{Caller: "n!1", Seq: 3}, Epoch: 5}
	plain := AppendRequest(nil, base)
	traced := *base
	traced.Trace = TraceContext{Trace: 0xabcdef, Span: 0x1234}
	ext := AppendRequest(nil, &traced)
	if !bytes.HasPrefix(ext, plain) {
		t.Fatal("traced request does not extend the trace-free encoding byte-for-byte")
	}
	back, err := DecodeRequestBytes(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&traced, back) {
		t.Fatalf("trace round trip:\n%+v\n%+v", &traced, back)
	}
	// The span context survives the HTTP carriers too.
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
// whole-struct marshal picks up the new optional fields for free, and
// their absence round-trips as nil for legacy payloads.
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
	// Legacy payload without the fields.
	var lback Request
	if err := json.Unmarshal([]byte(`{"id":1,"op":2,"guid":"g"}`), &lback); err != nil {
		t.Fatal(err)
	}
	if lback.Token != nil {
		t.Fatal("token materialised from legacy json")
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
	for _, o := range []Op{OpInvoke, OpInvokeClass, OpCreate, OpMigrateIn, OpPing, OpMigrateOut, Op(99)} {
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
