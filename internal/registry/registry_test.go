package registry

import (
	"sync"
	"testing"

	"rafda/internal/ir"
	"rafda/internal/vm"
)

// objVM is a VM over one class X, whose instances the tests export.
var objVM = func() *vm.VM {
	p := ir.NewProgram()
	p.MustAdd(&ir.Class{Name: "X", Super: ir.ObjectClass})
	return vm.MustNew(p)
}()

func obj() *vm.Object {
	o, err := objVM.NewObject("X")
	if err != nil {
		panic(err)
	}
	return o
}

func TestEnsureIdempotent(t *testing.T) {
	tab := New("n1")
	o := obj()
	id1 := tab.Ensure(o)
	id2 := tab.Ensure(o)
	if id1 != id2 {
		t.Fatalf("ids differ: %s vs %s", id1, id2)
	}
	got, ok := tab.Get(id1)
	if !ok || got != o {
		t.Fatal("lookup failed")
	}
	if back, ok := tab.GUIDOf(o); !ok || back != id1 {
		t.Fatal("reverse lookup failed")
	}
	if tab.Len() != 1 {
		t.Fatalf("len=%d", tab.Len())
	}
}

func TestDistinctObjectsDistinctIDs(t *testing.T) {
	tab := New("n1")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := tab.Ensure(obj())
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestPutAndRemove(t *testing.T) {
	tab := New("n1")
	o := obj()
	tab.Put("class:X", o)
	if got, ok := tab.Get("class:X"); !ok || got != o {
		t.Fatal("put lookup failed")
	}
	tab.Remove("class:X")
	if _, ok := tab.Get("class:X"); ok {
		t.Fatal("remove failed")
	}
	if _, ok := tab.GUIDOf(o); ok {
		t.Fatal("reverse map leaked")
	}
	tab.Remove("absent") // must not panic
}

func TestConcurrentEnsure(t *testing.T) {
	tab := New("n1")
	shared := obj()
	var wg sync.WaitGroup
	ids := make([]string, 16)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ids[g] = tab.Ensure(shared)
				tab.Ensure(obj())
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatal("shared object got multiple ids")
		}
	}
}
