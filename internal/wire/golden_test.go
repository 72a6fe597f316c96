package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// spec hand-assembles frames from DESIGN.md's "Message encoding"
// grammar with nothing but encoding/binary, so the golden frames below
// do not share a line with the codec they pin.
type spec []byte

func (s spec) uv(vs ...uint64) spec {
	for _, v := range vs {
		s = binary.AppendUvarint(s, v)
	}
	return s
}

func (s spec) zz(v int64) spec { return binary.AppendVarint(s, v) }

func (s spec) str(vs ...string) spec {
	for _, v := range vs {
		s = append(s.uv(uint64(len(v))), v...)
	}
	return s
}

func goldenCluster() *ClusterPayload {
	return &ClusterPayload{
		From:  PeerDigest{ID: "a", Endpoint: "rrp://a:1", Heartbeat: 5},
		Peers: []PeerDigest{{ID: "b", Endpoint: "rrp://b:1", Heartbeat: 3, Leaving: true}},
		Dir: []DirEntry{{Key: "g#0",
			Ref:     RemoteRef{GUID: "g#1", Endpoint: "rrp://b:1", Target: "C"},
			Version: 2, Origin: "b"}},
		Intents: []Intent{{GUID: "g#1", Class: "C", From: "rrp://b:1", To: "rrp://c:1",
			Proposer: "a", Priority: -12, Reason: "affinity"}},
		Stats: []ObjAffinity{{GUID: "g#1", Class: "C", Home: "rrp://b:1", Calls: 100,
			Callers: []EndpointCount{{Endpoint: "rrp://c:1", Calls: 90}}}},
		Replicas: []ReplicaSet{{GUID: "g#1", Class: "C", Primary: "rrp://b:1",
			Epoch: 17, Version: 3, Origin: "b",
			Replicas: []ReplicaInfo{{Endpoint: "rrp://c:1", GUID: "r#1"}}}},
	}
}

// goldenClusterBytes is goldenCluster's cluster? production.
func goldenClusterBytes(s spec) spec {
	s = s.uv(1)
	s = s.str("a", "rrp://a:1").uv(5, 0)                       // digest
	s = s.uv(1).str("b", "rrp://b:1").uv(3, 1)                 // npeers digest*
	s = s.uv(1).str("g#0")                                     // ndir key
	s = s.uv(1).str("g#1", "rrp://b:1", "C")                   //   ref?
	s = s.uv(2).str("b")                                       //   version origin
	s = s.uv(1).str("g#1", "C", "rrp://b:1", "rrp://c:1", "a") // nintents ...proposer
	s = s.zz(-12).str("affinity")                              //   priority reason
	s = s.uv(1).str("g#1", "C", "rrp://b:1").uv(100)           // nstats guid class home calls
	s = s.uv(1).str("rrp://c:1").uv(90)                        //   ncallers (endpoint calls)*
	s = s.uv(1).str("g#1", "C", "rrp://b:1").uv(17, 3)         // nreplicas guid class primary epoch version
	s = s.str("b").uv(1).str("rrp://c:1", "r#1")               //   origin nmembers (endpoint guid)*
	return s
}

// TestGoldenFrames pins the binary layout to DESIGN.md's grammar: a
// request and a response with every field populated encode to exactly
// the hand-assembled bytes, and those bytes decode back to them.
func TestGoldenFrames(t *testing.T) {
	resp := Response{ID: 4, Result: Value{Kind: KString, Str: "ok"},
		ExClass: "E", ExMsg: "boom", Err: "bad",
		Redirect: &RemoteRef{GUID: "class:C", Endpoint: "rrp://c:1", Target: "C"},
		Cluster:  goldenCluster(), Epoch: 11}
	var wantResp spec
	wantResp = wantResp.uv(4)
	wantResp = wantResp.uv(uint64(KString)).str("ok")          // value
	wantResp = wantResp.str("E", "boom", "bad")                // exClass exMsg err
	wantResp = wantResp.uv(1).str("class:C", "rrp://c:1", "C") // redirect?
	wantResp = goldenClusterBytes(wantResp)
	wantResp = wantResp.uv(11) // epoch

	req := &Request{ID: 300, Op: OpMigrateIn, GUID: "g#1", Class: "C", Method: "m",
		Args: []Value{
			{Kind: KVoid},
			{Kind: KNull},
			{Kind: KBool, Bool: true},
			{Kind: KInt, Int: -3},
			{Kind: KFloat, Float: 1.5},
			{Kind: KRef, Ref: &RemoteRef{GUID: "g#3", Endpoint: "rrp://b:1", Target: "D"}},
			{Kind: KArray, Elem: "I", Arr: []Value{{Kind: KInt, Int: 7}}},
		},
		Fields:     []NamedValue{{Name: "f", Value: Value{Kind: KInt, Int: 2}}},
		Endpoint:   "rrp://b:1",
		Caller:     "rrp://a:1",
		Cluster:    goldenCluster(),
		Token:      &CallToken{Caller: "n!1", Seq: 9, Attempt: 1, Ack: 8},
		Dedup:      []DedupEntry{{Caller: "x!2", Seq: 3, Resp: resp}},
		Epoch:      21,
		Trace:      TraceContext{Trace: 0xfeedface, Span: 0xbeef},
		DeadlineUs: 2500,
		Priority:   3,
	}
	var wantReq spec
	wantReq = wantReq.uv(300, uint64(OpMigrateIn)).str("g#1", "C", "m")
	wantReq = wantReq.uv(7) // nargs
	wantReq = wantReq.uv(uint64(KVoid), uint64(KNull), uint64(KBool), 1)
	wantReq = wantReq.uv(uint64(KInt)).zz(-3)
	wantReq = wantReq.uv(uint64(KFloat), math.Float64bits(1.5))
	wantReq = wantReq.uv(uint64(KRef)).str("g#3", "rrp://b:1", "D")
	wantReq = wantReq.uv(uint64(KArray)).str("I").uv(1, uint64(KInt)).zz(7)
	wantReq = wantReq.uv(1).str("f").uv(uint64(KInt)).zz(2) // nfields (name value)*
	wantReq = wantReq.str("rrp://b:1", "rrp://a:1")         // endpoint caller
	wantReq = goldenClusterBytes(wantReq)
	wantReq = wantReq.uv(1).str("n!1").uv(9, 1, 8)        // has_token token
	wantReq = wantReq.uv(1).str("x!2").uv(3)              // ndedup caller seq
	wantReq = append(wantReq, wantResp...)                //   response
	wantReq = wantReq.uv(21, 0xfeedface, 0xbeef, 2500, 3) // epoch trace_id span_id deadline_us priority

	if got := AppendRequest(nil, req); !bytes.Equal(got, wantReq) {
		t.Fatalf("request encoding drifted from the grammar:\ngot  %x\nwant %x", got, []byte(wantReq))
	}
	backReq, err := DecodeRequestBytes(wantReq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, backReq) {
		t.Fatalf("golden request decode:\n%+v\n%+v", req, backReq)
	}
	if got := AppendResponse(nil, &resp); !bytes.Equal(got, wantResp) {
		t.Fatalf("response encoding drifted from the grammar:\ngot  %x\nwant %x", got, []byte(wantResp))
	}
	backResp, err := DecodeResponseBytes(wantResp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&resp, backResp) {
		t.Fatalf("golden response decode:\n%+v\n%+v", &resp, backResp)
	}
}
