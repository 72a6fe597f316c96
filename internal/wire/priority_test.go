package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPriorityWithDeadlineOrdering covers the deadline and the priority
// class on one frame: both survive a round trip, and priority is the
// frame's last field, right after deadline_us.
func TestPriorityWithDeadlineOrdering(t *testing.T) {
	req := &Request{ID: 22, Op: OpInvoke, GUID: "g#1", Method: "m",
		Token:      &CallToken{Caller: "n!1", Seq: 4, Attempt: 1},
		Trace:      TraceContext{Trace: 0xabad1dea, Span: 0x9},
		DeadlineUs: 750,
		Priority:   1}
	b := AppendRequest(nil, req)
	back, err := DecodeRequestBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("deadline+priority round trip:\n%+v\n%+v", req, back)
	}
	if !bytes.HasSuffix(b, spec{}.uv(750, 1)) {
		t.Fatalf("frame does not end deadline_us priority: %x", b)
	}
}

// TestPriorityOverflowClamped hand-builds a frame whose priority field
// exceeds uint32 and checks the decoder clamps instead of truncating
// into a surprise low class.
func TestPriorityOverflowClamped(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 24, Op: OpInvoke, GUID: "g#1", Method: "m"})
	// The zero priority is the frame's one last byte; swap in 2^40.
	frame = spec(frame[:len(frame)-1]).uv(1 << 40)
	back, err := DecodeRequestBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if back.Priority != 1<<32-1 {
		t.Fatalf("oversized priority not clamped: %d", back.Priority)
	}
}
