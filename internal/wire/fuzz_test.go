package wire

import (
	"reflect"
	"testing"
)

// Seed corpus for the decoder fuzzers: valid encodings populating every
// trailing field — the call token, migrated dedup entries (each
// embedding a response), the replica epoch on both directions, the
// trace context, deadline and priority — plus OpIntrospect probes and a
// gossip payload with every list populated including replica sets.  The
// fuzzer mutates from these so it reaches the deep fields instead of
// bouncing off the header.
func seedRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpInvoke, GUID: "g#1", Method: "m",
			Args:   []Value{{Kind: KInt, Int: 42}, {Kind: KString, Str: "s"}},
			Caller: "rrp://c:1"},
		{ID: 3, Op: OpInvoke, GUID: "g#1", Method: "m",
			Token: &CallToken{Caller: "n!1", Seq: 9, Attempt: 1, Ack: 4}},
		{ID: 4, Op: OpMigrateIn, Class: "C",
			Fields: []NamedValue{{Name: "f", Value: Value{Kind: KArray, Elem: "I",
				Arr: []Value{{Kind: KInt, Int: 1}, {Kind: KInt, Int: 2}}}}},
			Token: &CallToken{Caller: "n!1", Seq: 10},
			Dedup: []DedupEntry{{Caller: "x!2", Seq: 3,
				Resp: Response{ID: 7, Result: Value{Kind: KInt, Int: 5}, Epoch: 2}}}},
		{ID: 5, Op: OpReplicaInstall, GUID: "g#1", Class: "C",
			Endpoint: "rrp://p:1", Epoch: 17,
			Fields: []NamedValue{{Name: "v", Value: Value{Kind: KInt, Int: 8}}},
			Token:  &CallToken{Caller: "n!1", Seq: 11}},
		{ID: 6, Op: OpReplicaUpdate, GUID: "r#1", Epoch: 18,
			Fields: []NamedValue{{Name: "v", Value: Value{Kind: KInt, Int: 9}}}},
		{ID: 8, Op: OpInvoke, GUID: "g#1", Method: "m",
			Token: &CallToken{Caller: "n!1", Seq: 12, Attempt: 2},
			Trace: TraceContext{Trace: 0xfeedface, Span: 0xbeef}},
		{ID: 9, Op: OpIntrospect, Method: "spans"},
		{ID: 11, Op: OpInvoke, GUID: "g#1", Method: "m",
			Caller: "rrp://c:1", DeadlineUs: 2500},
		{ID: 12, Op: OpInvoke, GUID: "g#1", Method: "m",
			Trace:      TraceContext{Trace: 0xcafe, Span: 0xf00d},
			DeadlineUs: 150000},
		{ID: 10, Op: OpIntrospect, GUID: "abcdef0123456789", Method: "trace",
			Trace: TraceContext{Trace: 1, Span: 2}},
		{ID: 13, Op: OpInvoke, GUID: "g#1", Method: "m",
			Caller: "rrp://c:1", Priority: 1},
		{ID: 14, Op: OpInvoke, GUID: "g#1", Method: "m",
			Token:      &CallToken{Caller: "n!1", Seq: 13},
			Trace:      TraceContext{Trace: 0xd00d, Span: 0x77},
			DeadlineUs: 90000, Priority: 3},
		{ID: 7, Op: OpGossip, Cluster: &ClusterPayload{
			From:  PeerDigest{ID: "a", Endpoint: "rrp://a:1", Heartbeat: 5},
			Peers: []PeerDigest{{ID: "b", Endpoint: "rrp://b:1", Heartbeat: 3, Leaving: true}},
			Dir: []DirEntry{{Key: "g#0",
				Ref:     RemoteRef{GUID: "g#1", Endpoint: "rrp://b:1", Target: "C"},
				Version: 2, Origin: "b"}},
			Intents: []Intent{{GUID: "g#1", Class: "C", From: "rrp://b:1",
				To: "rrp://c:1", Proposer: "a", Priority: 12, Reason: "affinity"}},
			Stats: []ObjAffinity{{GUID: "g#1", Class: "C", Home: "rrp://b:1",
				Calls:   100,
				Callers: []EndpointCount{{Endpoint: "rrp://c:1", Calls: 90}}}},
			Replicas: []ReplicaSet{{GUID: "g#1", Class: "C", Primary: "rrp://b:1",
				Epoch: 17, Version: 3, Origin: "b",
				Replicas: []ReplicaInfo{{Endpoint: "rrp://c:1", GUID: "r#1"}}}},
		}},
	}
}

func seedResponses() []*Response {
	return []*Response{
		{ID: 1},
		{ID: 2, Result: Value{Kind: KInt, Int: 42}},
		{ID: 3, ExClass: "sys.Exception", ExMsg: "boom"},
		{ID: 4, Err: "unknown GUID"},
		{ID: 5, Result: Value{Kind: KRef, Ref: &RemoteRef{GUID: "g#2",
			Endpoint: "rrp://b:1", Target: "C"}},
			Redirect: &RemoteRef{GUID: "g#3", Endpoint: "rrp://c:1", Target: "C"}},
		{ID: 6, Result: Value{Kind: KInt, Int: 7}, Epoch: 19},
		{ID: 7, Cluster: &ClusterPayload{
			From: PeerDigest{ID: "b", Endpoint: "rrp://b:1", Heartbeat: 8},
			Replicas: []ReplicaSet{{GUID: "g#1", Primary: "rrp://b:1",
				Epoch: 17, Version: 3, Origin: "b"}}}},
	}
}

// FuzzDecodeRequest feeds the binary request decoder arbitrary frames.
// The decoder must never panic; any frame it accepts must re-encode and
// re-decode to the same message (the codec is canonical for everything
// the decoder admits), and decoding through a string table — cold, then
// warm — must agree with decoding without one.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range seedRequests() {
		f.Add(AppendRequest(nil, req))
	}
	f.Add(hostileArgsFrame(maxSeq, nil))
	f.Add(deepArrayFrame(256))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequestBytes(b)
		var strs StringTable
		for range 2 {
			interned, ierr := strs.DecodeRequest(b)
			if (ierr == nil) != (err == nil) || !reflect.DeepEqual(interned, req) {
				t.Fatalf("interned decode disagrees:\nplain: %+v, %v\ninterned: %+v, %v", req, err, interned, ierr)
			}
		}
		if err != nil {
			return
		}
		enc := AppendRequest(nil, req)
		back, err := DecodeRequestBytes(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v\nfirst: %+v", err, req)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("re-encode not canonical:\nfirst: %+v\nsecond: %+v", req, back)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest's counterpart for responses,
// covering the redirect, the gossip payload reply and the epoch.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range seedResponses() {
		f.Add(AppendResponse(nil, resp))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeResponseBytes(b)
		if err != nil {
			return
		}
		enc := AppendResponse(nil, resp)
		back, err := DecodeResponseBytes(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v\nfirst: %+v", err, resp)
		}
		if !reflect.DeepEqual(resp, back) {
			t.Fatalf("re-encode not canonical:\nfirst: %+v\nsecond: %+v", resp, back)
		}
	})
}

// TestSeedCorpusRoundTrips pins the seed corpus itself: every seed is a
// valid frame that round-trips exactly, so the fuzzers always start
// from deep, meaningful inputs.
func TestSeedCorpusRoundTrips(t *testing.T) {
	for _, req := range seedRequests() {
		b := AppendRequest(nil, req)
		back, err := DecodeRequestBytes(b)
		if err != nil {
			t.Fatalf("seed request %d: %v", req.ID, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("seed request %d round trip:\n%+v\n%+v", req.ID, req, back)
		}
	}
	for _, resp := range seedResponses() {
		b := AppendResponse(nil, resp)
		back, err := DecodeResponseBytes(b)
		if err != nil {
			t.Fatalf("seed response %d: %v", resp.ID, err)
		}
		if !reflect.DeepEqual(resp, back) {
			t.Fatalf("seed response %d round trip:\n%+v\n%+v", resp.ID, resp, back)
		}
	}
}
