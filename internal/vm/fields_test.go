package vm

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
	"rafda/internal/verifier"
)

// slotsSource: a Cell holds a field of every kind a slot can have, and a
// Twin declares the same fields, so a morph to a Twin and back keeps
// every field a Cell method names.
const slotsSource = `
class Cell {
    int i; bool b; float x; Cell r; int[] a; string s;
    void put(int i, bool b, float x, Cell r, int[] a, string s) {
        this.i = i; this.b = b; this.x = x; this.r = r; this.a = a; this.s = s;
    }
    void seti(int i) { this.i = i; }
    int gi() { return i; }
    bool gb() { return b; }
    float gx() { return x; }
    Cell gr() { return r; }
    int[] ga() { return a; }
    string gs() { return s; }
}
class Twin { int i; bool b; float x; Cell r; int[] a; string s; }
class Main { static void main() {} }`

// slotNames are Cell's fields in put's argument order, with the getter
// that reads each.
var slotNames = [...]string{"i", "b", "x", "r", "a", "s"}

// slotWriters is what TestFieldSlotsUnderRace's writers write: writer w's
// k-th tuple is int w<<32|k, bool k even, float w<<32|k + 0.5 and writer
// w's own object, array and string.
type slotWriters struct {
	objs []*Object
	arrs []*Array
	strs []string
	per  int
}

func (sw *slotWriters) tuple(w, k int) []Value {
	k %= sw.per
	n := int64(w)<<32 | int64(k)
	return []Value{IntV(n), BoolV(k%2 == 0), FloatV(float64(n) + 0.5),
		RefV(sw.objs[w]), ArrayV(sw.arrs[w]), StringV(sw.strs[w])}
}

// written reports why v, read from field name, is not a value some
// writer wrote there (a zero value counts: it is where the field starts).
func (sw *slotWriters) written(name string, v Value) error {
	ok := false
	inRange := func(n int64) bool { return n>>32 < int64(len(sw.objs)) && n&(1<<32-1) < int64(sw.per) }
	switch name {
	case "i":
		ok = v.K == ir.KindInt && (v.I == 0 || inRange(v.I))
	case "b":
		ok = v.K == ir.KindBool && (v.I == 0 || v.I == 1)
	case "x":
		ok = v.K == ir.KindFloat && (v.F == 0 || v.F-math.Floor(v.F) == 0.5 && inRange(int64(v.F)))
	case "r":
		ok = v.K == ir.KindRef && v.O == nil
		for _, o := range sw.objs {
			ok = ok || v.K == ir.KindRef && v.O == o
		}
	case "a":
		ok = v.K == ir.KindArray && v.A == nil
		for _, a := range sw.arrs {
			ok = ok || v.K == ir.KindArray && v.A == a
		}
	case "s":
		ok = v.K == ir.KindString && v.S == ""
		for _, s := range sw.strs {
			ok = ok || v.K == ir.KindString && v.S == s
		}
	}
	if !ok {
		return fmt.Errorf("field %s read %s %v, which no writer wrote", name, v.K, v)
	}
	return nil
}

// TestFieldSlotsUnderRace: four executions holding no gate write and read
// one shared Cell's fields through putfield and getfield, while the host
// writes, reads and snapshots it by name, freezes and thaws it under its
// gate, and morphs it to a Twin and back.  Every value anyone reads is
// one some writer wrote, of the field's kind, and no string is torn (run
// it under -race: the one-word slots are read and written atomically,
// and the string slots under the state lock).
func TestFieldSlotsUnderRace(t *testing.T) {
	v := compileVM(t, slotsSource)
	const writers = 4
	sw := &slotWriters{per: 2000}
	for w := 0; w <= writers; w++ { // writer `writers` is the host
		o, err := v.NewObject("Cell")
		if err != nil {
			t.Fatal(err)
		}
		sw.objs = append(sw.objs, o)
		sw.arrs = append(sw.arrs, NewArray(ir.Int, w+1))
		sw.strs = append(sw.strs, strings.Repeat(string(rune('a'+w)), 8*(w+1)))
	}
	shared, err := v.NewObject("Cell")
	if err != nil {
		t.Fatal(err)
	}
	recv := RefV(shared)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Exec(func(env *Env) {
				for k := 0; k < sw.per; k++ {
					if _, thrown, err := env.Call("Cell", "put", recv, sw.tuple(w, k)); thrown != nil || err != nil {
						t.Errorf("writer %d: put: %v %v", w, thrown, err)
						return
					}
					for _, name := range slotNames {
						got, thrown, err := env.Call("Cell", "g"+name, recv, nil)
						if thrown != nil || err != nil {
							t.Errorf("writer %d: g%s: %v %v", w, name, thrown, err)
							return
						}
						if err := sw.written(name, got); err != nil {
							t.Errorf("writer %d: getfield: %v", w, err)
							return
						}
					}
				}
			})
		}()
	}
	go func() { wg.Wait(); close(stop) }()

	check := func(what string, fields map[string]Value) {
		for name, got := range fields {
			if err := sw.written(name, got); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}
	}
	var out [len(slotNames)]Value
	for k := 0; ; k++ {
		select {
		case <-stop:
			if k == 0 {
				t.Fatal("the writers finished before the host ran")
			}
			t.Logf("the host ran %d rounds", k)
			return
		default:
		}
		tuple := sw.tuple(writers, k)
		byName := make(map[string]Value, len(slotNames))
		for j, name := range slotNames {
			byName[name] = tuple[j]
		}
		if err := shared.SetFields(byName); err != nil {
			t.Fatal(err)
		}
		shared.ReadFields(slotNames[:], out[:])
		for j, name := range slotNames {
			if err := sw.written(name, out[j]); err != nil {
				t.Errorf("ReadFields: %v", err)
			}
		}
		_, fields := shared.View()
		check("View", fields)
		v.ExecOn(shared, func(*Env) {
			_, fields := shared.Freeze()
			check("Freeze", fields)
			shared.Thaw()
		})
		_, fields = shared.View()
		if err := v.Morph(shared, "Twin", fields); err != nil {
			t.Fatal(err)
		}
		_, fields = shared.View()
		if err := v.Morph(shared, "Cell", fields); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrozenStoreParksGates: a putfield that meets a frozen object waits
// for the object's gate with the gates of its own execution parked, so
// the holder of the frozen object's gate can take one of them meanwhile;
// the store lands once the object is thawed, and not before.
func TestFrozenStoreParksGates(t *testing.T) {
	v := compileVM(t, slotsSource)
	holder, err := v.NewObject("Cell") // the gate the storing execution holds
	if err != nil {
		t.Fatal(err)
	}
	target, err := v.NewObject("Cell")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	v.ExecOn(target, func(*Env) {
		target.Freeze()
		defer target.Thaw()
		go v.ExecOn(holder, func(env *Env) {
			_, thrown, err := env.Call("Cell", "seti", RefV(target), []Value{IntV(7)})
			if thrown != nil {
				err = fmt.Errorf("threw %v", thrown)
			}
			done <- err
		})
		for deadline := time.Now().Add(5 * time.Second); holder.Parked() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("a store waiting on a frozen object holds its execution's gates")
				return
			}
		}
		v.ExecOn(holder, func(*Env) {})
		if got := target.Get("i"); got.I != 0 {
			t.Errorf("a store landed in a frozen object: i = %v", got)
		}
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := target.Get("i"); got.I != 7 {
		t.Fatalf("after the thaw i = %v, want the waiting store's 7", got)
	}
}

// TestVerifierRefusesFieldKinds: a body that stores an int into P's
// string field s fails the verifier, and the VM refuses it when it is
// first called, before it runs.
func TestVerifierRefusesFieldKinds(t *testing.T) {
	p := stdlib.Program()
	p.MustAdd(&ir.Class{Name: "P", Super: ir.ObjectClass,
		Fields: []ir.Field{{Name: "s", Type: ir.String, Access: ir.AccessPublic}}})
	p.MustAdd(&ir.Class{Name: "T", Super: ir.ObjectClass, Methods: []*ir.Method{
		staticMethod("f", ir.Void, nil, []ir.Instr{
			{Op: ir.OpNew, Owner: "P"},
			{Op: ir.OpConstInt, A: 7},
			{Op: ir.OpPutField, Owner: "P", Member: "s"},
			{Op: ir.OpReturn},
		}),
	}})
	const want = "T.f pc=2: putfield of int to string field P.s"
	if errs := verifier.Verify(p); len(errs) != 1 || errs[0].Error() != want {
		t.Fatalf("Verify = %v, want [%s]", errs, want)
	}
	v, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Invoke("T", "f", Value{}, nil); err == nil || err.Error() != "vm fault: link: "+want {
		t.Fatalf("an int stored into a string field: %v", err)
	}
}
