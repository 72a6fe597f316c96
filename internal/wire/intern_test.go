package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// invokeRequest is a tokened, traced invoke with two int arguments: the
// common remote call as the node layer sends it.
func invokeRequest(guid string) *Request {
	return &Request{
		ID: 7, Op: OpInvoke, GUID: guid, Method: "add",
		Args:   []Value{{Kind: KInt, Int: 20}, {Kind: KInt, Int: 22}},
		Caller: "rrp://127.0.0.1:40000",
		Token:  &CallToken{Caller: "client!2", Seq: 9, Ack: 8},
		Trace:  TraceContext{Trace: 0x1234567890abcdef, Span: 5},
	}
}

func invokeFrame(guid string) []byte { return AppendRequest(nil, invokeRequest(guid)) }

// TestDecodeRequestAllocs pins the request decoder: once a connection's
// string table holds the identifiers, the request, its token and its two
// arguments are one allocation.
func TestDecodeRequestAllocs(t *testing.T) {
	b := invokeFrame("server#1")
	var strs StringTable
	if _, err := strs.DecodeRequest(b); err != nil { // warms the table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		req, err := strs.DecodeRequest(b)
		if err != nil || req.Token.Seq != 9 || req.Args[1].Int != 22 {
			t.Fatalf("decoded %+v, %v", req, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decoding an invoke allocates %.1f times; want 1", allocs)
	}
}

// hostileArgsFrame is a request frame declaring n arguments, followed by
// pad.
func hostileArgsFrame(n uint64, pad []byte) []byte {
	b := appendUvarint(nil, 1)
	b = appendUvarint(b, uint64(OpInvoke))
	b = appendString(b, "g#1")
	b = appendString(b, "")
	b = appendString(b, "m")
	b = appendUvarint(b, n)
	return append(b, pad...)
}

// TestHostileArgCountRejected: the decoder sizes Args from the declared
// count, and maxSeq values would be about 1.5 GB.  A count the frame's
// remaining bytes cannot hold (every value takes at least one), or one
// over maxSeq, is rejected before it sizes anything — the latter even
// when the padding (zero bytes, each a one-byte KInvalid value) would
// decode.  A count within both bounds over garbage (0xff, not a value)
// fails at its first value, having sized at most maxPresize.  Each case
// allocates under 1 MiB.
func TestHostileArgCountRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"count over the frame's bytes", hostileArgsFrame(maxSeq, nil)},
		{"count over maxSeq", hostileArgsFrame(maxSeq+1, make([]byte, maxSeq+1))},
		{"count over garbage", hostileArgsFrame(maxSeq, bytes.Repeat([]byte{0xff}, maxSeq))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, err := DecodeRequestBytes(c.b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte frame decoded: %+v", c.name, len(c.b), req)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: rejecting the frame allocated %d bytes", c.name, grew)
		}
	}
}

// TestStringTableBounded drives one connection's table through 10 000
// distinct GUIDs: it never holds more than its bound, every request
// still decodes its own GUID, and a GUID that repeats after the flood is
// shared — a full table is dropped, so it follows the current working
// set instead of keeping the first identifiers it saw.
func TestStringTableBounded(t *testing.T) {
	var strs StringTable
	for i := range 10000 {
		guid := fmt.Sprintf("server#%d", i)
		req, err := strs.DecodeRequest(invokeFrame(guid))
		if err != nil {
			t.Fatal(err)
		}
		if req.GUID != guid || req.Method != "add" || req.Token.Caller != "client!2" {
			t.Fatalf("request %d decoded as %+v", i, req)
		}
		if n := len(strs.m); n > maxInterned {
			t.Fatalf("after request %d the table holds %d strings; bound is %d", i, n, maxInterned)
		}
	}
	b := invokeFrame("late#1")
	first, err := strs.DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	second, err := strs.DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(first.GUID) != unsafe.StringData(second.GUID) {
		t.Fatal("a GUID first seen after the table filled is copied on every decode")
	}
}

// TestStringTableSkipsLongStrings: a string over the length bound is
// copied on every decode, never entered into the table.
func TestStringTableSkipsLongStrings(t *testing.T) {
	long := strings.Repeat("g", maxInternLen+1)
	b := invokeFrame(long)
	var strs StringTable
	first, err := strs.DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	second, err := strs.DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if first.GUID != long || second.GUID != long {
		t.Fatalf("decoded GUIDs %q, %q", first.GUID, second.GUID)
	}
	if _, ok := strs.m[long]; ok {
		t.Fatal("a string over the length bound was interned")
	}
	if unsafe.StringData(first.GUID) == unsafe.StringData(second.GUID) {
		t.Fatal("two decodes of a long string share storage")
	}
	// The short identifiers of the same frames are shared.
	if unsafe.StringData(first.Method) != unsafe.StringData(second.Method) {
		t.Fatal("a short identifier was not interned")
	}
}

// TestDecodedStringsOutliveFrame: decoded messages never alias the
// frame, so the transport may overwrite its buffer right after decoding
// — on a table miss, a table hit, and without a table.
func TestDecodedStringsOutliveFrame(t *testing.T) {
	var strs StringTable
	for _, c := range []struct {
		name   string
		decode func([]byte) (*Request, error)
	}{
		{"copied", DecodeRequestBytes},
		{"interned, table miss", strs.DecodeRequest},
		{"interned, table hit", strs.DecodeRequest},
	} {
		b := invokeFrame("server#1")
		req, err := c.decode(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = 0xff
		}
		if want := invokeRequest("server#1"); !reflect.DeepEqual(req, want) {
			t.Fatalf("%s: overwriting the frame changed the request:\n got %+v (token %+v)\nwant %+v",
				c.name, req, req.Token, want)
		}
	}
}
