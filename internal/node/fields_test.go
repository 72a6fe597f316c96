package node

import (
	"errors"
	"strings"
	"testing"

	"rafda/internal/intercept"
	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/policy"
	"rafda/internal/stdlib"
	"rafda/internal/transform"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// fieldsSource's Cell has a field of each kind a shipped value is
// checked against: an int, a reference and an array.
const fieldsSource = `
class Cell {
    int n; Cell next; int[] xs;
    Cell(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Mk { static Cell make() { return new Cell(0); } }
class Main { static void main() {} }`

// TestMigrateInChecksShippedFields sends OpMigrateIn requests from a raw
// peer: a snapshot naming a field Cell does not declare, or shipping a
// value of the wrong kind into a declared one, gets an error response
// and exports nothing; a snapshot of declared fields, nulls in the
// reference and array fields, is adopted as it was shipped.
func TestMigrateInChecksShippedFields(t *testing.T) {
	n, err := New(Config{Name: "home", Result: transformSource(t, fieldsSource)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ep, err := n.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	migrateIn := func(fields ...wire.NamedValue) *wire.Response {
		return rawCall(t, ep, &wire.Request{ID: 1, Op: wire.OpMigrateIn, Class: "Cell", Fields: fields})
	}
	null := wire.Value{Kind: wire.KNull}
	for _, tc := range []struct {
		what   string
		fields []wire.NamedValue
		want   string
	}{
		{"undeclared field", []wire.NamedValue{{Name: "bogus", Value: wire.Value{Kind: wire.KInt, Int: 1}}},
			"no field bogus on Cell_O_Local"},
		{"string into int n", []wire.NamedValue{{Name: "n", Value: wire.Value{Kind: wire.KString, Str: "7"}}},
			"field n of Cell_O_Local holds int, not string"},
		{"int into array xs", []wire.NamedValue{{Name: "xs", Value: wire.Value{Kind: wire.KInt, Int: 7}}},
			"field xs of Cell_O_Local holds array, not int"},
	} {
		resp := migrateIn(tc.fields...)
		if !strings.Contains(resp.Err, tc.want) {
			t.Errorf("%s: response %+v, want an error containing %q", tc.what, resp, tc.want)
		}
		if got := n.exports.Len(); got != 0 {
			t.Fatalf("%s: %d objects exported after a refused adoption", tc.what, got)
		}
	}

	resp := migrateIn(
		wire.NamedValue{Name: "n", Value: wire.Value{Kind: wire.KInt, Int: 41}},
		wire.NamedValue{Name: "next", Value: null},
		wire.NamedValue{Name: "xs", Value: null})
	if resp.Err != "" || resp.Result.Ref == nil {
		t.Fatalf("declared fields: %+v", resp)
	}
	bump := rawCall(t, ep, &wire.Request{ID: 2, Op: wire.OpInvoke, GUID: resp.Result.Ref.GUID, Method: "bump"})
	if bump.Err != "" || bump.Result.Int != 42 {
		t.Fatalf("bump of the adopted Cell: %+v, want 42", bump)
	}
}

// TestReplicaStateChecksShippedFields: a replica install or update from
// a raw peer is held to the same rule as a migration's snapshot.  A
// refused install exports nothing, and a refused update leaves the copy
// and its epoch as they were.
func TestReplicaStateChecksShippedFields(t *testing.T) {
	n, err := New(Config{Name: "reader", Result: transformSource(t, fieldsSource)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ep, err := n.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	state := func(name string, v wire.Value) []wire.NamedValue { return []wire.NamedValue{{Name: name, Value: v}} }
	install := func(fields []wire.NamedValue) *wire.Response {
		return rawCall(t, ep, &wire.Request{ID: 1, Op: wire.OpReplicaInstall, Class: "Cell",
			GUID: "primary#1", Endpoint: "rrp://127.0.0.1:1", Epoch: 1, Fields: fields})
	}
	if resp := install(state("bogus", wire.Value{Kind: wire.KInt, Int: 1})); !strings.Contains(resp.Err, "no field bogus on Cell_O_Local") {
		t.Fatalf("install with an undeclared field: %+v", resp)
	}
	if got := n.exports.Len(); got != 0 {
		t.Fatalf("%d objects exported after a refused install", got)
	}
	resp := install(state("n", wire.Value{Kind: wire.KInt, Int: 5}))
	if resp.Err != "" || resp.Result.Ref == nil {
		t.Fatalf("install: %+v", resp)
	}
	replica := resp.Result.Ref.GUID
	update := func(epoch uint64, v wire.Value) *wire.Response {
		return rawCall(t, ep, &wire.Request{ID: 2, Op: wire.OpReplicaUpdate, GUID: replica, Epoch: epoch, Fields: state("n", v)})
	}
	if resp := update(2, wire.Value{Kind: wire.KString, Str: "9"}); !strings.Contains(resp.Err, "field n of Cell_O_Local holds int, not string") {
		t.Fatalf("update of a string into int n: %+v", resp)
	}
	if resp := update(2, wire.Value{Kind: wire.KInt, Int: 9}); resp.Err != "" || resp.Epoch != 2 {
		t.Fatalf("update at the epoch the refused one named: %+v", resp)
	}
	if obj, ok := n.exports.Get(replica); !ok || obj.Get("n") != vm.IntV(9) {
		t.Fatalf("replica copy after the updates: %v %v, want n = 9", obj, ok)
	}
}

// TestRemoteExceptionMustBeThrowable: a response naming an exception
// class is re-thrown as that class only when it is a throwable; a peer
// naming any other class makes the caller throw sys.RemoteException, not
// an instance of that class whose constructor never ran.
func TestRemoteExceptionMustBeThrowable(t *testing.T) {
	res := transformSource(t, fieldsSource)
	client, server, endpoint := twoNodes(t, res, "rrp")
	var exClass string
	server.Use(func(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) {
		if cc.Req.Op == wire.OpInvoke && cc.Req.Method == "bump" {
			return &wire.Response{ID: cc.Req.ID, ExClass: exClass, ExMsg: "forged"}, nil
		}
		return next(cc)
	})
	pl, err := policy.RemoteAt(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	client.Policy().SetClass("Cell", pl)
	ref, err := client.InvokeStatic("Mk", "make")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ exClass, wantClass, wantMsg string }{
		{transform.OLocal("Cell"), stdlib.RemoteExceptionClass, "remote exception Cell_O_Local: forged"},
		{"NoSuchClass", stdlib.RemoteExceptionClass, "remote exception NoSuchClass: forged"},
		{stdlib.ArithmeticClass, stdlib.ArithmeticClass, "forged"},
	} {
		exClass = tc.exClass
		_, err := client.CallOn(ref, "bump")
		var uncaught *vm.UncaughtError
		if !errors.As(err, &uncaught) || uncaught.Class != tc.wantClass || uncaught.Message != tc.wantMsg {
			t.Errorf("ExClass %s: %v, want uncaught %s: %s", tc.exClass, err, tc.wantClass, tc.wantMsg)
		}
	}
}

// accSource's Acc takes an int, a string and an int array.
const accSource = `
class Acc {
    int total;
    int add(int n) { total = total + n; return total; }
    string greet(string s) { return "hi " + s; }
    int sum(int[] a) {
        int s = 0;
        for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
        return s;
    }
    int get() { return total; }
}
class Mk { static Acc make() { return new Acc(); } }
class Main { static void main() {} }`

// TestOutsideValuesAreKindChecked sends calls from a raw peer whose
// arguments are not of the declared kinds: each gets an error response
// naming the method's parameter, or the array's element type, and both
// kinds, and the object's total is left as it was.  The same arguments
// through the host's CallOn are refused alike.
func TestOutsideValuesAreKindChecked(t *testing.T) {
	n, err := New(Config{Name: "home", Result: transformSource(t, accSource)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ep, err := n.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	in := rawCall(t, ep, &wire.Request{ID: 1, Op: wire.OpMigrateIn, Class: "Acc",
		Fields: []wire.NamedValue{{Name: "total", Value: wire.Value{Kind: wire.KInt, Int: 5}}}})
	if in.Err != "" || in.Result.Ref == nil {
		t.Fatalf("adopting an Acc: %+v", in)
	}
	id := in.Result.Ref.GUID
	obj, _ := n.exports.Get(id)
	call := func(method string, args ...wire.Value) *wire.Response {
		return rawCall(t, ep, &wire.Request{ID: 2, Op: wire.OpInvoke, GUID: id, Method: method, Args: args})
	}
	str := func(s string) wire.Value { return wire.Value{Kind: wire.KString, Str: s} }
	num := func(i int64) wire.Value { return wire.Value{Kind: wire.KInt, Int: i} }
	for _, tc := range []struct {
		method string
		arg    wire.Value
		host   vm.Value
		want   string
	}{
		{"add", str("7"), vm.StringV("7"), "argument 0 of Acc_O_Local.add is string, not int"},
		{"add", wire.Value{Kind: wire.KBool, Bool: true}, vm.BoolV(true), "argument 0 of Acc_O_Local.add is bool, not int"},
		{"add", wire.Value{Kind: wire.KNull}, vm.NullV(), "argument 0 of Acc_O_Local.add is null, not int"},
		{"add", wire.Value{Kind: wire.KFloat, Float: 2.5}, vm.FloatV(2.5), "argument 0 of Acc_O_Local.add is float, not int"},
		{"greet", num(3), vm.IntV(3), "argument 0 of Acc_O_Local.greet is int, not string"},
		{"sum", wire.Value{Kind: wire.KArray, Elem: "I", Arr: []wire.Value{str("a"), num(3)}},
			vm.Value{}, "array of int holds string at index 0"},
		{"sum", wire.Value{Kind: wire.KArray, Elem: "S", Arr: []wire.Value{str("a")}},
			vm.ArrayV(&vm.Array{Elem: ir.String, Vals: []vm.Value{vm.StringV("a")}}),
			"argument 0 of Acc_O_Local.sum is string[], not int[]"},
	} {
		if resp := call(tc.method, tc.arg); !strings.Contains(resp.Err, tc.want) {
			t.Errorf("%s(%v): response %+v, want an error containing %q", tc.method, tc.arg, resp, tc.want)
		}
		if tc.host.K != 0 {
			if got, err := n.CallOn(vm.RefV(obj), tc.method, tc.host); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CallOn %s(%v) = %v %v, want an error containing %q", tc.method, tc.host, got, err, tc.want)
			}
		}
		if got := call("get"); got.Err != "" || got.Result.Int != 5 {
			t.Fatalf("after %s(%v) the total is %+v, want 5", tc.method, tc.arg, got)
		}
	}
	if got := call("sum", wire.Value{Kind: wire.KArray, Elem: "I", Arr: []wire.Value{num(4), num(3)}}); got.Err != "" || got.Result.Int != 7 {
		t.Fatalf("sum([4, 3]) = %+v, want 7", got)
	}
	if got := call("add", num(2)); got.Err != "" || got.Result.Int != 7 {
		t.Fatalf("add(2) = %+v, want 7", got)
	}
}

// TestForeignRefNeedsAProxyMark sends a reference whose proxy name is
// taken by a declared class: the node must refuse it, not make an
// instance of the declared class and use it as a proxy.
func TestForeignRefNeedsAProxyMark(t *testing.T) {
	prog, err := minijava.Compile(`
class Tag_O_Proxy { int t; }
class Keep {
    int n;
    int take(Keep k) { n = n + 1; return n; }
}
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Transform(prog, transform.Options{Exclude: []string{"Tag_O_Proxy"}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Name: "home", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ep, err := n.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	in := rawCall(t, ep, &wire.Request{ID: 1, Op: wire.OpMigrateIn, Class: "Keep"})
	if in.Err != "" || in.Result.Ref == nil {
		t.Fatalf("adopting a Keep: %+v", in)
	}
	ref := &wire.RemoteRef{GUID: "far#1", Endpoint: "rrp://127.0.0.1:1", Proto: "rrp", Target: "Tag"}
	resp := rawCall(t, ep, &wire.Request{ID: 2, Op: wire.OpInvoke, GUID: in.Result.Ref.GUID, Method: "take",
		Args: []wire.Value{{Kind: wire.KRef, Ref: ref}}})
	if want := "no proxy class Tag_O_Proxy"; !strings.Contains(resp.Err, want) {
		t.Fatalf("take(a reference to Tag over rrp): %+v, want an error containing %q", resp, want)
	}
}
