package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestDeadlineWithTraceOrdering covers the trace context and the
// deadline on one frame, beside a token and an epoch: all survive a
// round trip, and the fixed layout writes trace_id span_id before
// deadline_us, then priority, as the frame's last fields.
func TestDeadlineWithTraceOrdering(t *testing.T) {
	req := &Request{ID: 14, Op: OpInvoke, GUID: "g#1", Method: "m",
		Token:      &CallToken{Caller: "n!1", Seq: 3, Attempt: 1},
		Epoch:      9,
		Trace:      TraceContext{Trace: 0xabad1dea, Span: 0x1234},
		DeadlineUs: 750}
	b := AppendRequest(nil, req)
	back, err := DecodeRequestBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("trace+deadline round trip:\n%+v\n%+v", req, back)
	}
	tail := spec{}.uv(9, 0xabad1dea, 0x1234, 750, 0)
	if !bytes.HasSuffix(b, tail) {
		t.Fatalf("frame does not end epoch trace_id span_id deadline_us priority: %x", b)
	}
}
