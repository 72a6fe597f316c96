package vm

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"rafda/internal/ir"
)

// Value is a runtime value: one of void (the zero Value), bool, int,
// float, string, object reference (possibly null) or array reference.
type Value struct {
	K ir.Kind
	I int64 // int payload; bool uses 0/1
	F float64
	S string
	O *Object
	A *Array
}

// Convenience constructors.

// IntV returns an int value.
func IntV(v int64) Value { return Value{K: ir.KindInt, I: v} }

// FloatV returns a float value.
func FloatV(v float64) Value { return Value{K: ir.KindFloat, F: v} }

// BoolV returns a bool value.
func BoolV(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{K: ir.KindBool, I: i}
}

// StringV returns a string value.
func StringV(s string) Value { return Value{K: ir.KindString, S: s} }

// RefV returns an object reference value (o may be nil for null).
func RefV(o *Object) Value { return Value{K: ir.KindRef, O: o} }

// NullV returns the null reference.
func NullV() Value { return Value{K: ir.KindRef} }

// ArrayV returns an array reference value.
func ArrayV(a *Array) Value { return Value{K: ir.KindArray, A: a} }

// IsVoid reports whether v is the void (absent) value.
func (v Value) IsVoid() bool { return v.K == 0 || v.K == ir.KindVoid }

// IsNullRef reports whether v is a null object or array reference.
func (v Value) IsNullRef() bool { return isNull(&v) }

// isNull is IsNullRef for the interpreter, which tests an operand in its
// slot instead of copying it.
func isNull(v *Value) bool {
	return (v.K == ir.KindRef && v.O == nil) || (v.K == ir.KindArray && v.A == nil)
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.I != 0 }

// String renders the value for diagnostics and the semantic-equivalence
// experiments (object identities are rendered by class, not address, so
// output is reproducible across runs).
func (v Value) String() string {
	switch v.K {
	case 0, ir.KindVoid:
		return "void"
	case ir.KindBool:
		return strconv.FormatBool(v.I != 0)
	case ir.KindInt:
		return strconv.FormatInt(v.I, 10)
	case ir.KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case ir.KindString:
		return v.S
	case ir.KindRef:
		if v.O == nil {
			return "null"
		}
		return "<" + v.O.ClassName() + ">"
	case ir.KindArray:
		if v.A == nil {
			return "null"
		}
		return fmt.Sprintf("<%s[%d]>", v.A.Elem, len(v.A.Vals))
	default:
		return fmt.Sprintf("<bad value kind %d>", v.K)
	}
}

// ZeroValue returns the default value for a declared type.
func ZeroValue(t ir.Type) Value {
	switch t.Kind {
	case ir.KindBool:
		return Value{K: ir.KindBool}
	case ir.KindInt:
		return Value{K: ir.KindInt}
	case ir.KindFloat:
		return Value{K: ir.KindFloat}
	case ir.KindString:
		return Value{K: ir.KindString}
	case ir.KindArray:
		return Value{K: ir.KindArray}
	default:
		return Value{K: ir.KindRef}
	}
}

// Array is a runtime array object.  Element slots carry multi-word
// Values and are NOT individually synchronised: like the rest of the
// heap they are safe under the per-object/per-entry execution discipline
// documented in docs/CONCURRENCY.md, and concurrent entry points that
// share an array must serialise through the object that owns it.
type Array struct {
	Elem ir.Type
	Vals []Value
}

// NewArray allocates an array of n zero values of elem.
func NewArray(elem ir.Type, n int) *Array {
	vals := make([]Value, n)
	z := ZeroValue(elem)
	for i := range vals {
		vals[i] = z
	}
	return &Array{Elem: elem, Vals: vals}
}

// layout maps the field names of one object shape to slots.  Every
// instance of a class shares the class's layout (built on first
// allocation, see VM.layoutOf); a by-name write of a field the layout
// lacks moves the object to the one-field extension of its layout, so
// ad-hoc fields (proxy reference quads morphed onto any class, migrated
// snapshots) keep working exactly as they did when objects were maps.
// Layouts are immutable apart from the extension table.
type layout struct {
	names []string
	index map[string]int
	refs  []link  // refs[i] is what a getfield/putfield site caches for slot i
	zeros []Value // slot defaults for a fresh instance (class layouts only)

	mu   sync.Mutex
	next map[string]*layout // one-field extensions, by added name
}

func newLayout(names []string) *layout {
	l := &layout{
		names: names,
		index: make(map[string]int, len(names)),
		refs:  make([]link, len(names)),
	}
	for i, n := range names {
		l.index[n] = i
		l.refs[i] = link{layout: l, slot: i}
	}
	return l
}

// with returns the layout that has l's fields plus name.
func (l *layout) with(name string) *layout {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.next[name]; n != nil {
		return n
	}
	n := newLayout(append(l.names[:len(l.names):len(l.names)], name))
	if l.next == nil {
		l.next = make(map[string]*layout)
	}
	l.next[name] = n
	return n
}

// Object is a heap object: an instance of its class with its instance
// fields (including inherited ones) flattened into one slot vector
// described by a layout.  A slot holding the zero Value is an absent
// field: that is how an object morphed with fewer fields than its class
// declares, or extended by name beyond them, reports what it has.
//
// Proxy instances are ordinary Objects whose class was generated by the
// transformer; the node runtime stores the target GUID and endpoint in
// their fields.  Object migration exploits this uniformity: a local object
// can be morphed in place into a proxy (see VM.Morph), which atomically
// redirects every existing reference — the mechanism behind Figure 1's
// replacement of C with Cp.
//
// Thread safety: two locks with distinct roles.
//
//   - mu guards the layout and the slot vector for the duration of one
//     read/write/morph, so individual heap operations are atomic and a
//     slot index is never applied to the wrong layout, no matter which
//     goroutines race.  The class pointer is written under mu together
//     with them but read with a single atomic load: dispatch needs only
//     the class, and a morph racing it is ordered either side.
//   - gate is the object's invocation gate (a monitor): the node runtime
//     holds it for the whole of an inbound method invocation targeting
//     this object, and migration holds it across snapshot→ship→morph.
//     Invocations of *different* objects therefore run in parallel while
//     invocations of the same object — and migrations — serialise.
//
// The gate is deliberately not acquired by intra-VM calls between
// objects inside one execution, so self-calls and local call chains
// cannot self-deadlock; see docs/CONCURRENCY.md for the full contract.
type Object struct {
	mu     sync.Mutex
	class  atomic.Pointer[ir.Class]
	layout *layout
	vals   []Value

	gate sync.Mutex

	// epoch counts morphs.  An execution that parked in RunUnlocked
	// while holding this object's gate compares the epoch on gate
	// re-acquisition: a bump means the object it was interpreting was
	// migrated away mid-method, and the invocation must be retried
	// against the new class (see MigrationInterrupt) instead of
	// faulting on fields that no longer exist.
	epoch atomic.Uint64

	// telem is the object's telemetry slot: an opaque per-object stats
	// record (internal/telemetry.ObjStats) installed lazily by the node
	// runtime.  The VM never reads it; it lives here so the hot
	// dispatch path reaches the counters with one atomic load and no
	// map lookup or lock below the invocation gate.
	telem atomic.Value

	// parked counts executions that released this object's gate inside
	// Env.RunUnlocked and have not yet resumed.  Migration reads it to
	// drain parked invocations before snapshotting — letting a parked
	// call finish at the old home executes it exactly once, where
	// interrupting it forces a whole-method retry at the new home
	// (docs/CONCURRENCY.md §8).
	parked atomic.Int32
}

// Parked returns the number of executions currently parked mid-method
// with this object's gate released (see Env.RunUnlocked).
func (o *Object) Parked() int32 { return o.parked.Load() }

// NewRawObject builds an object directly from a class and field map; the
// normal allocation path is VM.NewObject / Env.New.  The object gets a
// private layout of exactly the given fields.
func NewRawObject(class *ir.Class, fields map[string]Value) *Object {
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	l := newLayout(names)
	o := &Object{layout: l, vals: make([]Value, len(names))}
	o.class.Store(class)
	for i, k := range names {
		o.vals[i] = fields[k]
	}
	return o
}

// newObject builds a zeroed instance of class on its shared layout.
func newObject(class *ir.Class, l *layout) *Object {
	o := &Object{layout: l, vals: make([]Value, len(l.zeros))}
	o.class.Store(class)
	copy(o.vals, l.zeros)
	return o
}

// Class returns the object's current dynamic class.
func (o *Object) Class() *ir.Class { return o.class.Load() }

// ClassName returns the current dynamic class name ("<nil>" before the
// object is fully constructed).
func (o *Object) ClassName() string {
	if c := o.class.Load(); c != nil {
		return c.Name
	}
	return "<nil>"
}

// slotLocked returns the slot of name, extending the object's layout by
// one field when it has none.  Caller holds o.mu.
func (o *Object) slotLocked(name string) int {
	if i, ok := o.layout.index[name]; ok {
		return i
	}
	o.layout = o.layout.with(name)
	o.vals = append(o.vals, Value{})
	return len(o.vals) - 1
}

// Get reads a field (zero Value if absent).
func (o *Object) Get(name string) Value {
	v, _ := o.Field(name)
	return v
}

// Field reads a field and reports whether it exists.
func (o *Object) Field(name string) (Value, bool) {
	var v Value
	o.mu.Lock()
	if i, ok := o.layout.index[name]; ok {
		v = o.vals[i]
	}
	o.mu.Unlock()
	return v, v.K != 0
}

// Set writes a field.
func (o *Object) Set(name string, v Value) {
	o.mu.Lock()
	o.vals[o.slotLocked(name)] = v
	o.mu.Unlock()
}

// load is Field for a getfield site: it copies the field into *dst and
// reports whether the object has it, leaving *dst alone when not.  at
// caches the slot the name had in the layout the site last saw, and is
// refreshed on a miss (an object of another class, or one morphed or
// extended since).
func (o *Object) load(dst *Value, name string, at *atomic.Pointer[link]) bool {
	var v *Value
	ref := at.Load()
	o.mu.Lock()
	if ref != nil && ref.layout == o.layout {
		v = &o.vals[ref.slot]
	} else if i, ok := o.layout.index[name]; ok {
		v = &o.vals[i]
		at.Store(&o.layout.refs[i])
	}
	ok := v != nil && v.K != 0
	if ok {
		*dst = *v
	}
	o.mu.Unlock()
	return ok
}

// store is Set for a putfield site; at as in load.
func (o *Object) store(name string, at *atomic.Pointer[link], v *Value) {
	ref := at.Load()
	o.mu.Lock()
	if ref != nil && ref.layout == o.layout {
		o.vals[ref.slot] = *v
	} else {
		i := o.slotLocked(name)
		o.vals[i] = *v
		at.Store(&o.layout.refs[i])
	}
	o.mu.Unlock()
}

// SetFields writes several fields under one lock acquisition, so readers
// never observe a torn multi-field update (proxy retargeting writes the
// GUID/endpoint/proto/target quadruple this way).
func (o *Object) SetFields(m map[string]Value) {
	o.mu.Lock()
	for k, v := range m {
		o.vals[o.slotLocked(k)] = v
	}
	o.mu.Unlock()
}

// ReadFields copies the values of the named fields into out (same
// length, same order) under one lock acquisition — the allocation-free
// consistent multi-field read the proxy hot path uses for the
// GUID/endpoint/target triple (a concurrent retarget can never be
// observed torn).
func (o *Object) ReadFields(names []string, out []Value) {
	o.mu.Lock()
	for i, n := range names {
		if s, ok := o.layout.index[n]; ok {
			out[i] = o.vals[s]
		} else {
			out[i] = Value{}
		}
	}
	o.mu.Unlock()
}

// View returns the object's class and a copy of its fields, both taken
// under one lock acquisition — a consistent snapshot for marshalling and
// migration.
func (o *Object) View() (*ir.Class, map[string]Value) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fields := make(map[string]Value, len(o.vals))
	for i, v := range o.vals {
		if v.K != 0 {
			fields[o.layout.names[i]] = v
		}
	}
	return o.class.Load(), fields
}

// morph atomically re-types the object in place: it takes class's shared
// layout l, holding exactly the given fields (the rest absent).
func (o *Object) morph(class *ir.Class, l *layout, fields map[string]Value) {
	o.mu.Lock()
	o.class.Store(class)
	o.layout = l
	o.vals = make([]Value, len(l.names))
	for k, v := range fields {
		o.vals[o.slotLocked(k)] = v
	}
	o.epoch.Add(1)
	o.mu.Unlock()
}

// Epoch returns the object's morph count.  Executions record it at gate
// acquisition and re-check after blocking I/O; migration is the only
// morph source, so a changed epoch means "this object moved".
func (o *Object) Epoch() uint64 { return o.epoch.Load() }

// Telemetry returns the object's telemetry record, or nil when none has
// been installed.
func (o *Object) Telemetry() any { return o.telem.Load() }

// TelemetryOrInit returns the object's telemetry record, installing
// mk() atomically on first use.  All installations must use one
// concrete type.  installed reports whether this call's mk() value won
// the race (so the caller can register it in a side index exactly once).
func (o *Object) TelemetryOrInit(mk func() any) (rec any, installed bool) {
	if v := o.telem.Load(); v != nil {
		return v, false
	}
	nv := mk()
	if o.telem.CompareAndSwap(nil, nv) {
		return nv, true
	}
	return o.telem.Load(), false
}
