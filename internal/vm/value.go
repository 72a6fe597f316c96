package vm

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

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
// initialises, see VM.initClass).  An object holds exactly the fields
// of its layout: a write of a name the layout lacks is refused, never
// added.  Layouts are immutable.
type layout struct {
	names []string
	index map[string]int
	refs  []link    // refs[i] is what a field or static site caches for slot i
	types []ir.Type // declared types, one per name
	zeros []Value   // slot defaults, one per name
}

// newLayout builds the layout of names, declared of types, whose slots
// start at their types' zero values.  Each slot's site record is self
// plus the slot and its declared kind and type: a static layout's records carry
// the class and state, so one record serves a static site's init check
// and its slot.
func newLayout(self link, names []string, types []ir.Type) *layout {
	l := &layout{
		names: names,
		index: make(map[string]int, len(names)),
		refs:  make([]link, len(names)),
		types: types,
		zeros: make([]Value, len(names)),
	}
	for i, n := range names {
		l.index[n] = i
		l.zeros[i] = ZeroValue(types[i])
		l.refs[i] = self
		l.refs[i].layout, l.refs[i].slot, l.refs[i].kind, l.refs[i].typ = l, i, l.zeros[i].K, &types[i]
	}
	return l
}

// noFields is the layout of a class monitor before its class's
// initialisation has made its static slots, and unset the state every
// such monitor shares (it has no slot to write).
var (
	noFields = newLayout(link{}, nil, nil)
	unset    = slots{layout: noFields}
)

// slotFor returns the slot a by-name write of v to name goes to, or an
// error when the layout has no such field or v does not fit its declared
// type (see Value.Fits).
func (l *layout) slotFor(owner, name string, v *Value) (int, error) {
	i, ok := l.index[name]
	if !ok {
		return 0, &FaultError{Msg: fmt.Sprintf("no field %s on %s", name, owner)}
	}
	if k := l.refs[i].kind; !v.Fits(l.types[i]) {
		return 0, &FaultError{Msg: fmt.Sprintf("field %s of %s holds %s, not %s", name, owner, k, v.K)}
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
		i := l.index[k]
		storeSlot(&vals[i], l.refs[i].kind, &v)
	}
	return nil
}

// A slot of a declared kind other than string keeps its value in one
// word of its Value — I for an int or bool, the bits of F, O, A — and
// every access to it, under the state lock or not, reads or writes that
// word alone with one atomic operation; its K is the declared kind,
// written only before the slot is published.  A string is two words: it
// is read and written whole, and only under the state lock.

// oneWord reports whether a slot of kind k is one atomic word.
func oneWord(k ir.Kind) bool {
	return k >= ir.KindBool && k <= ir.KindArray && k != ir.KindString
}

// Fits reports whether v, a value from outside verified code — a call's
// argument, a native's result, a by-name field write, an element of an
// array a peer sends — may be held where t is declared: a value of t's
// kind — an array of t's element type — or null where t is a reference
// or an array.
func (v Value) Fits(t ir.Type) bool {
	switch {
	case isNull(&v):
		return t.Kind == ir.KindRef || t.Kind == ir.KindArray
	case v.K != t.Kind:
		return false
	}
	return t.Kind != ir.KindArray || v.A.Elem.Equal(*t.Elem)
}

// kindOf renders v's kind for a refusal: an array's element type, null,
// or nothing for the void value.
func kindOf(v *Value) string {
	switch {
	case v.IsVoid():
		return "nothing"
	case isNull(v):
		return "null"
	case v.K == ir.KindArray:
		return v.A.Elem.String() + "[]"
	}
	return v.K.String()
}

// loadSlot copies slot s, of kind k, into *dst.
func loadSlot(dst, s *Value, k ir.Kind) {
	switch k {
	case ir.KindBool, ir.KindInt:
		*dst = Value{K: k, I: atomic.LoadInt64(&s.I)}
	case ir.KindFloat:
		*dst = Value{K: k, F: math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&s.F))))}
	case ir.KindRef:
		*dst = Value{K: k, O: (*Object)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&s.O))))}
	case ir.KindArray:
		*dst = Value{K: k, A: (*Array)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&s.A))))}
	default:
		*dst = *s
	}
}

// storeSlot writes v, which fits kind k, to slot s.
func storeSlot(s *Value, k ir.Kind, v *Value) {
	switch k {
	case ir.KindBool, ir.KindInt:
		atomic.StoreInt64(&s.I, v.I)
	case ir.KindFloat:
		atomic.StoreUint64((*uint64)(unsafe.Pointer(&s.F)), math.Float64bits(v.F))
	case ir.KindRef:
		atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(&s.O)), unsafe.Pointer(v.O))
	case ir.KindArray:
		atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(&s.A)), unsafe.Pointer(v.A))
	default:
		*s = *v
	}
}

// slots is one state of an object: a layout and the values of its slots,
// published whole through Object.cur.  A morph publishes a new state and
// a freeze the same layout and values marked frozen; after publication
// only the values change, slot by slot.
type slots struct {
	layout *layout
	vals   []Value
	frozen bool // a migration is snapshotting the object: field-site stores wait
}

// site returns the site record of name in s — from the site cache at
// when it holds s's layout, else from the layout, refreshing at (an
// object of another class, or one morphed since the site last ran) — or
// nil when the layout has no such field.
func (s *slots) site(name string, at *atomic.Pointer[link]) *link {
	if ref := at.Load(); ref != nil && ref.layout == s.layout {
		return ref
	}
	return s.resite(name, at)
}

// resite is site on a miss of the site cache.  A field site's cache
// holds, from the first activation on, a record of the type the verifier
// resolved its field to (see VM.linkBody).  The verifier tracks shapes,
// not classes, so the code may meet an object of a class it was not
// verified against — an unrelated class, or a subclass whose field of
// the same name is the superclass's slot (see VM.fieldLayout).  A field
// there of another shape (Type.SameShape), array elements included, is
// not the site's field.
func (s *slots) resite(name string, at *atomic.Pointer[link]) *link {
	i, ok := s.layout.index[name]
	if !ok {
		return nil
	}
	ref := &s.layout.refs[i]
	if want := at.Load(); want != nil && want.typ != nil && !want.typ.SameShape(*ref.typ) {
		return nil
	}
	at.Store(ref)
	return ref
}

// access is the outcome of a field-site store.
type access uint8

const (
	stored access = iota
	absent        // the object has no field of that name
	frozen        // a migration is snapshotting the object (see Object.Freeze)
)

// target is where a store to name goes in s, or why it goes nowhere.
func (s *slots) target(name string, at *atomic.Pointer[link]) (*link, access) {
	if s.frozen {
		return nil, frozen
	}
	ref := s.site(name, at)
	if ref == nil {
		return nil, absent
	}
	return ref, stored
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
// Layout (DESIGN.md, "Object layout"): an instance is one allocation —
// the Object at its base, then its first state, then that state's slots
// (see newInstance); only a layout of more than maxInline slots keeps its
// slots in a second one.  The header holds what every access needs: the
// class, the state pointer, the gate, and a pointer to the side record,
// which holds the rest and exists only once something needs it.
//
// Thread safety (docs/CONCURRENCY.md §6):
//
//   - The layout and the slot vector are one state behind the atomic
//     pointer cur, so a slot index is never applied to the wrong
//     layout, no matter which goroutines race.  A field or static site
//     loads the state and reads or writes one slot word with one atomic
//     operation and no lock; a store then re-loads the state and, when
//     a morph or a freeze published another meanwhile, stores again
//     against that one.
//   - The state lock (side.mu) serialises what spans slots — SetFields,
//     ReadFields, View, Freeze, Thaw and the morph — every access by
//     name, and every access to a two-word slot (a string).  The class
//     pointer is written under it with the state but read with one
//     atomic load: dispatch needs only the class, and a morph racing it
//     is ordered either side.
//   - gate is the object's invocation gate (a monitor): the node runtime
//     holds it for the whole of an inbound method invocation targeting
//     this object, and migration holds it across freeze→ship→morph.
//     Invocations of *different* objects therefore run in parallel while
//     invocations of the same object — and migrations — serialise.
//
// The gate is deliberately not acquired by intra-VM calls between
// objects inside one execution, so self-calls and local call chains
// cannot self-deadlock; see docs/CONCURRENCY.md for the full contract.
type Object struct {
	class atomic.Pointer[ir.Class]
	cur   atomic.Pointer[slots]
	gate  sync.Mutex
	ext   atomic.Pointer[side] // nil until the object first needs its side record
}

// side is the part of an object's header few objects need, installed by
// whichever goroutine needs it first (Object.side): at the object's first
// access by name (the node's marshalling, export and proxy bookkeeping),
// to a string slot, freeze, morph, park, or telemetry record.  An object
// only made and then read and written at its field sites — the local
// objects of a program, most of its heap — never has one.
type side struct {
	// mu is the state lock (see Object).
	mu sync.Mutex

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
	// dispatch path reaches the counters with two atomic loads and no
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

// side returns o's side record, installing an empty one if o has none.
func (o *Object) side() *side {
	if s := o.ext.Load(); s != nil {
		return s
	}
	o.ext.CompareAndSwap(nil, new(side))
	return o.ext.Load()
}

// lock takes o's state lock and returns the record that holds it.
func (o *Object) lock() *side {
	s := o.side()
	s.mu.Lock()
	return s
}

// maxInline is the largest layout whose slots are allocated with their
// object (newInstance).
const maxInline = 8

// inline is one allocation holding an Object, its first state and the
// slots of that state: V is [n]Value, one size class per slot count n up
// to maxInline, or struct{} for an object whose slots are allocated apart
// (or that has none).  The Object comes first, so a pointer to it is a
// pointer to the allocation's base — what weak pointers and cleanups
// attach to.
type inline[V any] struct {
	Object
	own  slots
	vals V
}

// inlineOf holds, at index n-1, the allocator of objects of n slots.
var inlineOf = [maxInline]func(*layout) *Object{
	allocInline[[1]Value], allocInline[[2]Value], allocInline[[3]Value], allocInline[[4]Value],
	allocInline[[5]Value], allocInline[[6]Value], allocInline[[7]Value], allocInline[[8]Value],
}

// allocInline allocates an object of layout l, whose slot count is V's
// length, in one allocation.
func allocInline[V any](l *layout) *Object {
	p := new(inline[V])
	return p.start(&p.own, l, unsafe.Slice((*Value)(unsafe.Pointer(&p.vals)), len(l.zeros)))
}

// newInstance allocates an object of layout l, its slots at their zero
// values and its class not yet set: in one allocation up to maxInline
// slots, in two past it.
func newInstance(l *layout) *Object {
	if n := len(l.zeros); n > 0 && n <= maxInline {
		return inlineOf[n-1](l)
	}
	p := new(inline[struct{}])
	return p.start(&p.own, l, make([]Value, len(l.zeros)))
}

// start gives o, not yet shared, its first state: own, of layout l, with
// slots vals, which are new and so zeroed, at their zero values.  A slot's
// zero value is its kind and nothing else, so only the kinds are written:
// copying l.zeros whole would copy pointer words, behind write barriers
// whenever the collector runs.
func (o *Object) start(own *slots, l *layout, vals []Value) *Object {
	for i := range vals {
		vals[i].K = l.zeros[i].K
	}
	*own = slots{layout: l, vals: vals}
	o.cur.Store(own)
	return o
}

// Parked returns the number of executions currently parked mid-method
// with this object's gate released (see Env.RunUnlocked).
func (o *Object) Parked() int32 {
	if s := o.ext.Load(); s != nil {
		return s.parked.Load()
	}
	return 0
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
func (o *Object) Field(name string) (v Value, ok bool) {
	sd := o.lock()
	defer sd.mu.Unlock()
	s := o.cur.Load()
	i, ok := s.layout.index[name]
	if ok {
		loadSlot(&v, &s.vals[i], s.layout.refs[i].kind)
	}
	return v, ok
}

// Set writes a field.  A name the object's layout lacks, or a value that
// does not fit the field's type, is refused and the object left as it was.
// A by-name write does not wait for a frozen object (see Freeze).
func (o *Object) Set(name string, v Value) error {
	sd := o.lock()
	defer sd.mu.Unlock()
	s := o.cur.Load()
	i, err := s.layout.slotFor(o.ClassName(), name, &v)
	if err == nil {
		storeSlot(&s.vals[i], s.layout.refs[i].kind, &v)
	}
	return err
}

// load is Field for a field or static site: it copies the field into
// *dst and reports whether the object has it, leaving *dst alone when
// not.  at caches the site record of the name in the layout the site
// last saw.
func (o *Object) load(dst *Value, name string, at *atomic.Pointer[link]) bool {
	s := o.cur.Load()
	ref := at.Load()
	if ref == nil || ref.layout != s.layout {
		if ref = s.resite(name, at); ref == nil {
			return false
		}
	}
	if !oneWord(ref.kind) {
		return o.loadLocked(dst, name, at)
	}
	loadSlot(dst, &s.vals[ref.slot], ref.kind)
	return true
}

// loadLocked is load for a two-word slot.
func (o *Object) loadLocked(dst *Value, name string, at *atomic.Pointer[link]) bool {
	sd := o.lock()
	defer sd.mu.Unlock()
	s := o.cur.Load()
	ref := s.site(name, at)
	if ref != nil {
		loadSlot(dst, &s.vals[ref.slot], ref.kind)
	}
	return ref != nil
}

// store is Set for a field or static site of env's execution; at as in
// load.  It writes v, which the verifier found fits the field, and
// reports whether the object has the field; it writes nothing to a name
// the object lacks.  A store then re-loads the state: when a morph or a
// freeze published another since its load, the state it wrote may not be
// the one that stays, so it stores again against the new one.
func (o *Object) store(env *Env, name string, at *atomic.Pointer[link], v *Value) bool {
	s := o.cur.Load()
	if ref := at.Load(); ref != nil && ref.layout == s.layout && oneWord(ref.kind) && !s.frozen {
		storeSlot(&s.vals[ref.slot], ref.kind, v)
		if o.cur.Load() == s {
			return true
		}
	}
	return o.storeSlow(env, name, at, v)
}

// storeSlow is store off its fast path: a site-cache miss, a two-word
// slot, a field the object lacks, a state published since the load, or
// a frozen object.  A store that meets a frozen object waits on the
// object's gate, which the migration that froze it holds until it has
// morphed or thawed the object, and then stores against the state it
// finds.  While it waits its execution's gates are parked, as for a wait
// on another execution's class initialisation: the migration may need
// one of them.
func (o *Object) storeSlow(env *Env, name string, at *atomic.Pointer[link], v *Value) bool {
	for {
		s := o.cur.Load()
		ref, res := s.target(name, at)
		if res == stored {
			if !oneWord(ref.kind) {
				res = o.storeLocked(name, at, v)
			} else if storeSlot(&s.vals[ref.slot], ref.kind, v); o.cur.Load() != s {
				continue
			}
		}
		if res != frozen {
			return res == stored
		}
		env.RunUnlocked(func() {
			o.gate.Lock()
			o.gate.Unlock()
		})
	}
}

// storeLocked is store for a two-word slot.
func (o *Object) storeLocked(name string, at *atomic.Pointer[link], v *Value) access {
	sd := o.lock()
	defer sd.mu.Unlock()
	s := o.cur.Load()
	ref, res := s.target(name, at)
	if res == stored {
		storeSlot(&s.vals[ref.slot], ref.kind, v)
	}
	return res
}

// SetFields writes several fields under one lock acquisition, so readers
// that take the lock never observe a torn multi-field update (proxy
// retargeting writes the GUID/endpoint pair this way).
// When Set would refuse one of them, it writes none.  Like Set, it does
// not wait for a frozen object.
func (o *Object) SetFields(m map[string]Value) error {
	sd := o.lock()
	defer sd.mu.Unlock()
	s := o.cur.Load()
	return s.layout.fill(o.ClassName(), s.vals, m)
}

// ReadFields copies the values of the named fields into out (same
// length, same order) under one lock acquisition — the allocation-free
// consistent multi-field read the proxy hot path uses for the
// GUID/endpoint pair (a concurrent retarget can never be
// observed torn).  A name the object lacks reads as the zero Value.
func (o *Object) ReadFields(names []string, out []Value) {
	sd := o.lock()
	s := o.cur.Load()
	for i, n := range names {
		if j, ok := s.layout.index[n]; ok {
			loadSlot(&out[i], &s.vals[j], s.layout.refs[j].kind)
		} else {
			out[i] = Value{}
		}
	}
	sd.mu.Unlock()
}

// View returns the object's class and a copy of its fields, both taken
// under one lock acquisition — a consistent snapshot for marshalling and
// replication.
func (o *Object) View() (*ir.Class, map[string]Value) {
	sd := o.lock()
	defer sd.mu.Unlock()
	return o.view(o.cur.Load())
}

// view is View of state s; the caller holds mu.
func (o *Object) view(s *slots) (*ir.Class, map[string]Value) {
	fields := make(map[string]Value, len(s.vals))
	for i := range s.vals {
		var v Value
		loadSlot(&v, &s.vals[i], s.layout.refs[i].kind)
		fields[s.layout.names[i]] = v
	}
	return o.class.Load(), fields
}

// Freeze is View for a migration, which holds o's gate: it marks o's
// state frozen before it copies the fields.  Until a morph replaces the
// frozen state or Thaw releases it, a field-site store to o writes
// nothing and waits for o's gate instead (see storeSlow), so every
// store acknowledged to its execution is either in the snapshot or made
// again against the state that follows.  Reads never wait, and neither
// do by-name writes (Set, SetFields).
func (o *Object) Freeze() (*ir.Class, map[string]Value) {
	sd := o.lock()
	defer sd.mu.Unlock()
	s := o.cur.Load()
	o.cur.Store(&slots{layout: s.layout, vals: s.vals, frozen: true})
	return o.view(s)
}

// Thaw releases a frozen object whose migration did not morph it: stores
// that waited proceed against the state Freeze snapshotted.
func (o *Object) Thaw() {
	sd := o.lock()
	defer sd.mu.Unlock()
	if s := o.cur.Load(); s.frozen {
		o.cur.Store(&slots{layout: s.layout, vals: s.vals})
	}
}

// Epoch returns the object's morph count.  Executions record it at gate
// acquisition and re-check after blocking I/O; migration is the only
// morph source, so a changed epoch means "this object moved".
func (o *Object) Epoch() uint64 {
	if s := o.ext.Load(); s != nil {
		return s.epoch.Load()
	}
	return 0
}

// Telemetry returns the object's telemetry record, or nil when none has
// been installed.
func (o *Object) Telemetry() any {
	if s := o.ext.Load(); s != nil {
		return s.telem.Load()
	}
	return nil
}

// TelemetryOrInit returns the object's telemetry record, installing
// mk() atomically on first use.  All installations must use one
// concrete type.  installed reports whether this call's mk() value won
// the race (so the caller can register it in a side index exactly once).
func (o *Object) TelemetryOrInit(mk func() any) (rec any, installed bool) {
	s := o.side()
	if v := s.telem.Load(); v != nil {
		return v, false
	}
	nv := mk()
	if s.telem.CompareAndSwap(nil, nv) {
		return nv, true
	}
	return s.telem.Load(), false
}
