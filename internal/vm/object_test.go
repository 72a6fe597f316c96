package vm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// objectHeader is unsafe.Sizeof(Object{}): the class, the state pointer,
// the gate and the side-record pointer.  It was 104 bytes while the state
// lock, the morph epoch, the park count, the telemetry slot and the first
// state lived in the header.
const objectHeader = 32

// TestObjectHeaderSize pins objectHeader.  A field added to Object makes
// every object of every program larger: put what only some objects need
// in the side record.
func TestObjectHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != objectHeader {
		t.Fatalf("Object is %d bytes, want %d", got, objectHeader)
	}
}

// TestSlotsInline: an object of up to maxInline slots is one allocation,
// header first, its first state and its slots after it; a larger one
// keeps its slots apart.  Either way every slot starts at its declared
// type's zero value.
func TestSlotsInline(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, maxInline, maxInline + 1, 3 * maxInline} {
		var fields strings.Builder
		for i := range n {
			kind := "int"
			if i%2 == 1 {
				kind = "string"
			}
			fmt.Fprintf(&fields, "%s f%d; ", kind, i)
		}
		v := compileVM(t, "class P { "+fields.String()+"}\nclass Main { static void main() {} }")
		var o *Object
		allocs := testing.AllocsPerRun(100, func() { o, _ = v.NewObject("P") })
		want := 1.0
		if n > maxInline {
			want = 2
		}
		if allocs != want {
			t.Errorf("%d slots: NewObject allocates %.0f times, want %.0f", n, allocs, want)
		}
		s := o.cur.Load()
		if base := uintptr(unsafe.Pointer(o)); n <= maxInline && n > 0 &&
			uintptr(unsafe.Pointer(&s.vals[0])) != base+objectHeader+unsafe.Sizeof(slots{}) {
			t.Errorf("%d slots: slots not inline after the header and state", n)
		}
		if len(s.vals) != n || cap(s.vals) != n {
			t.Errorf("%d slots: len %d cap %d", n, len(s.vals), cap(s.vals))
		}
		for i := range n {
			if got, want := s.vals[i], s.layout.zeros[i]; got != want {
				t.Errorf("%d slots: slot %d starts at %v, want %v", n, i, got, want)
			}
		}
		if o.ext.Load() != nil {
			t.Errorf("%d slots: a new object has a side record", n)
		}
	}
}

// TestSideRecordInstallUnderRace: the first telemetry install, a park in
// RunUnlocked, a by-name Set and a Freeze/Thaw race to install a fresh
// object's side record.  Exactly one record wins: every caller sees the
// one telemetry record that was installed once, the write and the park
// count land in it, and the freeze is released.  Run it under -race.
func TestSideRecordInstallUnderRace(t *testing.T) {
	v := compileVM(t, slotsSource)
	for round := range 200 {
		o, err := v.NewObject("Cell")
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg        sync.WaitGroup
			start     = make(chan struct{})
			recs      [2]any
			installed [2]bool
			setErr    error
		)
		run := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f()
			}()
		}
		for i := range recs {
			run(func() { recs[i], installed[i] = o.TelemetryOrInit(func() any { return new(int) }) })
		}
		run(func() { v.ExecOn(o, func(env *Env) { env.RunUnlocked(func() {}) }) })
		run(func() { setErr = o.Set("s", StringV(fmt.Sprint("round ", round))) })
		run(func() { o.Freeze(); o.Thaw() })
		close(start)
		wg.Wait()

		if setErr != nil {
			t.Fatal(setErr)
		}
		if recs[0] != recs[1] || recs[0] != o.Telemetry() || installed[0] == installed[1] {
			t.Fatalf("round %d: telemetry records %p %p (installed %v), object holds %p",
				round, recs[0], recs[1], installed, o.Telemetry())
		}
		if got := o.Get("s").S; got != fmt.Sprint("round ", round) {
			t.Fatalf("round %d: s = %q", round, got)
		}
		if o.Parked() != 0 || o.Epoch() != 0 || o.cur.Load().frozen {
			t.Fatalf("round %d: parked %d, epoch %d, frozen %v", round, o.Parked(), o.Epoch(), o.cur.Load().frozen)
		}
	}
}
