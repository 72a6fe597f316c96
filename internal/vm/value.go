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

// IsVoid reports whether v is the void value.
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
// allocation, see VM.layoutOf), and a class's static fields are the
// slots of its monitor on a layout of their own (built when the class
// initialises, see VM.initClass); NewRawObject gives its object a
// private layout of exactly the fields it is given.  An object holds
// exactly the fields of its layout: a write of a name the layout lacks
// is refused, never added.  Layouts are immutable.
type layout struct {
	names []string
	index map[string]int
	refs  []link  // refs[i] is what a field or static site caches for slot i
	zeros []Value // slot defaults, one per name (nil for a raw object's layout)
}

// newLayout builds the layout of names, whose slots start at zeros (nil
// or one per name).  Each slot's site record is self plus the slot: a
// static layout's records carry the class and state, so one record
// serves a static site's init check and its slot.
func newLayout(self link, names []string, zeros []Value) *layout {
	l := &layout{
		names: names,
		index: make(map[string]int, len(names)),
		refs:  make([]link, len(names)),
		zeros: zeros,
	}
	for i, n := range names {
		l.index[n] = i
		l.refs[i] = self
		l.refs[i].layout, l.refs[i].slot = l, i
	}
	return l
}

// noFields is the layout of a class monitor before its class's
// initialisation has made its static slots.
var noFields = newLayout(link{}, nil, nil)

// slotFor returns the slot a by-name write of v to name goes to, or an
// error when the layout has no such field or v does not fit its type: a
// value of the declared kind, or null in a reference or array field.  A
// raw object's layout knows no types and takes any value.
func (l *layout) slotFor(owner, name string, v *Value) (int, error) {
	i, ok := l.index[name]
	if !ok {
		return 0, &FaultError{Msg: fmt.Sprintf("no field %s on %s", name, owner)}
	}
	if l.zeros != nil {
		if z := &l.zeros[i]; v.K != z.K && !(refLike(z) && isNull(v)) {
			return 0, &FaultError{Msg: fmt.Sprintf("field %s of %s holds %s, not %s", name, owner, z.K, v.K)}
		}
	}
	return i, nil
}

// fill writes fields into vals, slots of l, once every one has passed
// slotFor: all of them or, when one is refused, none.
func (l *layout) fill(owner string, vals []Value, fields map[string]Value) error {
	for k, v := range fields {
		if _, err := l.slotFor(owner, k, &v); err != nil {
			return err
		}
	}
	for k, v := range fields {
		vals[l.index[k]] = v
	}
	return nil
}

// Object is a heap object: an instance of its class with its instance
// fields (including inherited ones) flattened into one slot vector
// described by a layout, every declared field present from allocation
// on.  A class's monitor is an Object too, whose slots are the class's
// static fields.
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
	l := newLayout(link{}, names, nil)
	o := &Object{layout: l, vals: make([]Value, len(names))}
	o.class.Store(class)
	for i, k := range names {
		o.vals[i] = fields[k]
	}
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

// Get reads a field (the zero Value if the object has none of that name).
func (o *Object) Get(name string) Value {
	v, _ := o.Field(name)
	return v
}

// Field reads a field and reports whether the object has it.
func (o *Object) Field(name string) (Value, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if i, ok := o.layout.index[name]; ok {
		return o.vals[i], true
	}
	return Value{}, false
}

// Set writes a field.  A name the object's layout lacks, or a value that
// does not fit the field's type, is refused and the object left as it was.
func (o *Object) Set(name string, v Value) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	i, err := o.layout.slotFor(o.ClassName(), name, &v)
	if err == nil {
		o.vals[i] = v
	}
	return err
}

// load is Field for a field or static site: it copies the field into
// *dst and reports whether the object has it, leaving *dst alone when
// not.  at caches the slot the name had in the layout the site last saw.
func (o *Object) load(dst *Value, name string, at *atomic.Pointer[link]) bool {
	o.mu.Lock()
	i := o.siteSlot(name, at)
	if i >= 0 {
		*dst = o.vals[i]
	}
	o.mu.Unlock()
	return i >= 0
}

// store is Set for a field or static site, whose value the verifier has
// type-checked; at as in load.  A name the object lacks is refused.
func (o *Object) store(name string, at *atomic.Pointer[link], v *Value) bool {
	o.mu.Lock()
	i := o.siteSlot(name, at)
	if i >= 0 {
		o.vals[i] = *v
	}
	o.mu.Unlock()
	return i >= 0
}

// siteSlot returns the slot of name, or -1 when the object has none:
// from the site cache at when it holds the object's layout, else from
// the layout, refreshing at (an object of another class, or one morphed
// since the site last ran).  Caller holds o.mu.
func (o *Object) siteSlot(name string, at *atomic.Pointer[link]) int {
	if ref := at.Load(); ref != nil && ref.layout == o.layout {
		return ref.slot
	}
	i, ok := o.layout.index[name]
	if !ok {
		return -1
	}
	at.Store(&o.layout.refs[i])
	return i
}

// SetFields writes several fields under one lock acquisition, so readers
// never observe a torn multi-field update (proxy retargeting writes the
// GUID/endpoint/proto/target quadruple this way).  When Set would refuse
// one of them, it writes none.
func (o *Object) SetFields(m map[string]Value) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.layout.fill(o.ClassName(), o.vals, m)
}

// ReadFields copies the values of the named fields into out (same
// length, same order) under one lock acquisition — the allocation-free
// consistent multi-field read the proxy hot path uses for the
// GUID/endpoint/target triple (a concurrent retarget can never be
// observed torn).  A name the object lacks reads as the zero Value.
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
		fields[o.layout.names[i]] = v
	}
	return o.class.Load(), fields
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
