package ir

import (
	"fmt"
	"sync"
)

// StackEffect returns how many operands in pops and pushes.  An invoke
// pushes its result unless its target resolves to a void method, so an
// unresolvable target counts as pushing one; an invalid opcode moves
// nothing.
func (p *Program) StackEffect(in *Instr) (pops, pushes int) {
	void := false
	switch in.Op {
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeSpecial:
		_, m := p.LookupMethod(in.Owner, in.Member, in.NArgs)
		void = m != nil && m.Return.IsVoid()
	}
	return effect(in, void)
}

// effect is StackEffect for an instruction whose invoke target, if it
// has one, is already resolved: void says that it returns nothing.
func effect(in *Instr, void bool) (pops, pushes int) {
	switch in.Op {
	case OpConstInt, OpConstFloat, OpConstString, OpConstBool, OpConstNull,
		OpLoad, OpNew, OpGetStatic:
		return 0, 1
	case OpStore, OpPop, OpPutStatic, OpJumpIf, OpJumpIfNot,
		OpReturnValue, OpThrow:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpSwap:
		return 2, 2
	case OpGetField, OpNewArray, OpArrayLen, OpNeg, OpNot, OpCast, OpInstanceOf:
		return 1, 1
	case OpPutField:
		return 2, 0
	case OpALoad, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpConcat,
		OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		return 2, 1
	case OpAStore:
		return 3, 0
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeSpecial:
		pops, pushes = in.NArgs, 1
		if in.Op != OpInvokeStatic {
			pops++
		}
		if void {
			pushes = 0
		}
		return pops, pushes
	}
	return 0, 0
}

// StackFault is a fault the walk finds in a method body: an instruction
// that underflows the stack or meets an operand of the wrong kind, a join
// reached at two depths or with two kinds, a load of a local that is
// unset on some path, or a path that falls off the end of the code.
type StackFault struct {
	PC  int
	Msg string
}

// kindNull is the walk's type of a null: what const.null pushes, however
// the constant is typed.  A null ref and a null array fit the same slots
// and behave alike wherever the interpreter meets them, so they are one
// type here.  No declared type has this kind.
const kindNull Kind = 0xff

var (
	nullType = Type{Kind: kindNull}
	refType  = Type{Kind: KindRef}
)

// kindName renders a walk type for a fault message: its kind, with class
// names left out (the walk does not track them).
func kindName(t Type) string {
	switch t.Kind {
	case kindNull:
		return "null"
	case KindInvalid:
		return "nothing"
	case KindArray:
		return kindName(*t.Elem) + "[]"
	}
	return t.Kind.String()
}

// refLike reports whether a value of walk type t may be null.
func refLike(t Type) bool { return t.Kind == KindRef || t.Kind == KindArray || t.Kind == kindNull }

// fits reports whether a value of walk type t may go where decl is
// declared: a value of decl's shape, or a null where decl is a reference
// or an array.  Ints are not floats: the front end converts explicitly.
func fits(t, decl Type) bool {
	if t.Kind == kindNull {
		return decl.Kind == KindRef || decl.Kind == KindArray
	}
	return t.SameShape(decl)
}

// merge joins t into *have, the type a join point holds, and reports
// whether *have changed and whether the two agree.  A null agrees with
// any reference or array and gives way to it.
func merge(have *Type, t Type) (changed, ok bool) {
	switch {
	case have.SameShape(t) || (t.Kind == kindNull && refLike(*have)):
		return false, true
	case have.Kind == kindNull && refLike(t):
		*have = t
		return true, true
	}
	return false, false
}

// Depths walks m's control-flow graph from pc 0 and from each handler
// target, tracking the type of every local and operand: int, bool,
// float, string, ref, array of a type, or null.  Class names are not
// tracked.  callee[pc] is the method an invoke at pc resolves to, and
// field[pc] the declared type of the field a field access at pc names;
// their entries at other pcs are not read.
//
// The walk keeps an entry state at each join point — pc 0, every jump
// target and every handler target — and walks straight-line code from
// there, so the state at any pc is its join point's plus the
// instructions since.  States are joined where paths meet: operands must
// agree in number and kind (a null agrees with any reference or array),
// and a local of two kinds, like one unset on some path, cannot be
// loaded.  A handler target's stack holds the thrown ref, and its locals
// join those at every pc its range covers.  A join point is walked again
// only when a join changes its state, so the walk ends.
//
// Every instruction's operands must be of the kinds it takes: numbers
// for arithmetic, bools for branches and not, strings for concat, refs
// for field accesses, invoke receivers and throw, arrays for array
// operations, and values that fit the declared type for field stores,
// invoke arguments and returns.  An array operation on a null ends its
// path, as it always throws.
//
// It returns the deepest operand stack and the first fault the walk
// meets, or nil; the walk stops at a fault, so only a faultless walk's
// deepest covers the whole body.  Targets outside the code are not
// followed.  The caller has checked each instruction's own operands
// first (see the verifier's checkInstr): names resolve, slots are not
// negative.
func Depths(m *Method, callee []*Method, field []*Type) (deepest int, fault *StackFault) {
	w := walks.Get().(*walk)
	defer w.finish()
	w.start(m, callee, field)
	entry := w.cur[:w.nl]
	i := 0
	if !m.Static {
		entry[0] = refType
		i = 1
	}
	for _, p := range m.Params {
		entry[i] = p
		i++
	}
	w.join(0, entry)
	for _, h := range m.Handlers {
		w.seedHandler(h.Target)
	}
	for len(w.work) > 0 && w.fault == nil {
		s := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		w.states[s].queued = false
		w.walk(s)
	}
	return w.deepest, w.fault
}

// walk is Depths' state.
type walk struct {
	m      *Method
	callee []*Method
	field  []*Type
	nl     int     // locals in every state
	slots  []int32 // slots[pc] indexes the local a load or store at pc names; nil when slots index themselves
	lead   []int32 // lead[pc] is 1 + the index in states of the join point at pc, or 0
	states []joinState
	arena  []Type  // every join point's state
	work   []int32 // join points to walk
	cur    []Type  // the state being walked: locals, then the operand stack

	deepest int
	fault   *StackFault
}

// joinState is one join point's entry state, held in arena[off:] once
// the walk reaches it: nl locals, then depth operands.
type joinState struct {
	pc, off, depth int  // depth < 0: not reached
	locals         bool // the locals are known (a handler's are not until a pc it covers is walked)
	queued         bool
}

// walks recycles walk states: the verifier walks every method of a
// program, most of them small.
var walks = sync.Pool{New: func() any { return new(walk) }}

// start readies w, fresh or recycled, to walk m.
func (w *walk) start(m *Method, callee []*Method, field []*Type) {
	code := m.Code
	w.m, w.callee, w.field = m, callee, field
	w.lead = resize(w.lead, len(code))
	w.slots, w.states, w.arena, w.work = nil, w.states[:0], w.arena[:0], w.work[:0]
	w.deepest, w.fault = 0, nil
	nargs := len(m.Params)
	if !m.Static {
		nargs++
	}
	top := int64(nargs)
	for i := range code {
		if in := &code[i]; in.Op == OpLoad || in.Op == OpStore {
			top = max(top, in.A+1)
		}
	}
	if top > int64(nargs+len(code)) {
		// Far slots: number the locals in order of appearance instead,
		// so a state holds one entry per local the code names.
		w.slots = make([]int32, len(code))
		index := make(map[int64]int32)
		for i := range code {
			if in := &code[i]; in.Op == OpLoad || in.Op == OpStore {
				if in.A < int64(nargs) {
					w.slots[i] = int32(in.A)
					continue
				}
				n, ok := index[in.A]
				if !ok {
					n = int32(nargs + len(index))
					index[in.A] = n
				}
				w.slots[i] = n
			}
		}
		top = int64(nargs + len(index))
	}
	w.nl = int(top)
	w.cur = resize(w.cur, w.nl)
	w.addLead(0)
	for i := range code {
		if code[i].IsJump() {
			w.addLead(int(code[i].A))
		}
	}
	for _, h := range m.Handlers {
		w.addLead(h.Target)
	}
}

// finish recycles w.
func (w *walk) finish() {
	w.m, w.callee, w.field = nil, nil, nil
	walks.Put(w)
}

// resize returns s, or a new slice when it is too short, as n zeroes.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (w *walk) addLead(pc int) {
	if pc >= 0 && pc < len(w.lead) && w.lead[pc] == 0 {
		w.states = append(w.states, joinState{pc: pc, depth: -1})
		w.lead[pc] = int32(len(w.states))
	}
}

func (w *walk) report(pc int, format string, a ...any) {
	if w.fault == nil {
		w.fault = &StackFault{PC: pc, Msg: fmt.Sprintf(format, a...)}
	}
}

// reach gives join point s its first state, depth operands deep, and
// returns it.
func (w *walk) reach(s *joinState, depth int) []Type {
	s.depth, s.off = depth, len(w.arena)
	w.arena = append(w.arena, make([]Type, w.nl+depth)...)
	w.deepest = max(w.deepest, depth)
	return w.arena[s.off:]
}

func (w *walk) queue(i int32) {
	if s := &w.states[i]; !s.queued {
		s.queued = true
		w.work = append(w.work, i)
	}
}

// seedHandler reaches the handler target pc with the thrown ref on the
// stack and its locals not yet known.
func (w *walk) seedHandler(pc int) {
	if pc < 0 || pc >= len(w.lead) {
		return
	}
	s := &w.states[w.lead[pc]-1]
	switch {
	case s.depth < 0:
		w.reach(s, 1)[w.nl] = refType
	case s.depth != 1:
		w.report(pc, "inconsistent stack depth at join: %d vs %d", s.depth, 1)
	}
}

// join merges st, a state reaching pc, into pc's join point.
func (w *walk) join(pc int, st []Type) {
	if pc < 0 || pc >= len(w.lead) {
		return
	}
	i := w.lead[pc] - 1
	s := &w.states[i]
	depth := len(st) - w.nl
	if s.depth < 0 {
		copy(w.reach(s, depth), st)
		s.locals = true
		w.queue(i)
		return
	}
	if s.depth != depth {
		w.report(pc, "inconsistent stack depth at join: %d vs %d", s.depth, depth)
		return
	}
	have := w.arena[s.off : s.off+len(st)]
	changed := w.joinLocals(s, have, st)
	for j := w.nl; j < len(st); j++ {
		ch, ok := merge(&have[j], st[j])
		if !ok {
			w.report(pc, "kind conflict at join: operand %d is %s on one path and %s on another",
				j-w.nl, kindName(have[j]), kindName(st[j]))
			return
		}
		changed = changed || ch
	}
	if changed {
		w.queue(i)
	}
}

// joinLocals merges the locals of st into have, s's state, and reports
// whether they changed.  A local that differs in kind between the two
// becomes unset.
func (w *walk) joinLocals(s *joinState, have, st []Type) bool {
	if !s.locals {
		s.locals = true
		copy(have[:w.nl], st[:w.nl])
		return true
	}
	changed := false
	for j := range w.nl {
		if have[j].Kind == KindInvalid {
			continue
		}
		if ch, ok := merge(&have[j], st[j]); !ok {
			have[j], changed = Type{}, true
		} else if ch {
			changed = true
		}
	}
	return changed
}

// walk walks straight-line code from join point i until its path ends
// or reaches another join point.
func (w *walk) walk(i int32) {
	s := &w.states[i]
	code := w.m.Code
	w.cur = append(w.cur[:0], w.arena[s.off:s.off+w.nl+s.depth]...)
	for pc := s.pc; ; {
		for _, h := range w.m.Handlers {
			if pc >= h.Start && pc < h.End && h.Target >= 0 && h.Target < len(code) {
				t := w.lead[h.Target] - 1
				hs := &w.states[t]
				if w.joinLocals(hs, w.arena[hs.off:hs.off+w.nl], w.cur) {
					w.queue(t)
				}
			}
		}
		w.deepest = max(w.deepest, len(w.cur)-w.nl)
		next, ok := w.step(pc, &code[pc])
		switch {
		case w.fault != nil || !ok:
			return
		case next == len(code):
			w.report(pc, "execution can fall off the end of the code")
			return
		case w.lead[next] != 0:
			w.join(next, w.cur)
			return
		}
		pc = next
	}
}

// pop pops the top operand.
func (w *walk) pop() Type {
	t := w.cur[len(w.cur)-1]
	w.cur = w.cur[:len(w.cur)-1]
	return t
}

func (w *walk) push(t Type) { w.cur = append(w.cur, t) }

// step applies the instruction at pc to the walked state, and returns
// where its path goes next; ok is false when the path ends there.  A
// conditional jump joins its target itself.
func (w *walk) step(pc int, in *Instr) (next int, ok bool) {
	var callee *Method
	switch in.Op {
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeSpecial:
		callee = w.callee[pc]
	}
	void := callee != nil && callee.Return.IsVoid()
	pops, _ := effect(in, void)
	if d := len(w.cur) - w.nl; d < pops {
		w.report(pc, "stack underflow: depth %d, need %d", d, pops)
		return 0, false
	}
	// wrong reports an operand of walk type t where the instruction
	// takes what.
	wrong := func(t Type, what string) (int, bool) {
		w.report(pc, "%s of %s, not %s", in.Op, kindName(t), what)
		return 0, false
	}
	switch in.Op {
	case OpConstInt:
		w.push(Int)
	case OpConstFloat:
		w.push(Float)
	case OpConstString:
		w.push(String)
	case OpConstBool:
		w.push(Bool)
	case OpConstNull:
		w.push(nullType)
	case OpLoad:
		t := w.cur[w.slot(pc, in)]
		if t.Kind == KindInvalid {
			w.report(pc, "load of local %d, unset or of another kind on some path", in.A)
			return 0, false
		}
		w.push(t)
	case OpStore:
		w.cur[w.slot(pc, in)] = w.pop()
	case OpDup:
		w.push(w.cur[len(w.cur)-1])
	case OpPop:
		w.pop()
	case OpSwap:
		n := len(w.cur)
		w.cur[n-1], w.cur[n-2] = w.cur[n-2], w.cur[n-1]
	case OpNew:
		w.push(refType)
	case OpGetField:
		if r := w.pop(); !isRef(r) {
			return wrong(r, "ref")
		}
		w.push(*w.field[pc])
	case OpPutField:
		v, r := w.pop(), w.pop()
		if !isRef(r) {
			return wrong(r, "ref")
		}
		if decl := *w.field[pc]; !fits(v, decl) {
			w.report(pc, "putfield of %s to %s field %s.%s", kindName(v), kindName(decl), in.Owner, in.Member)
			return 0, false
		}
	case OpGetStatic:
		w.push(*w.field[pc])
	case OpPutStatic:
		if v, decl := w.pop(), *w.field[pc]; !fits(v, decl) {
			w.report(pc, "putstatic of %s to %s field %s.%s", kindName(v), kindName(decl), in.Owner, in.Member)
			return 0, false
		}
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeSpecial:
		args := w.cur[len(w.cur)-in.NArgs:]
		for j, decl := range callee.Params {
			if !fits(args[j], decl) {
				w.report(pc, "argument %d of %s.%s is %s, not %s", j, in.Owner, in.Member, kindName(args[j]), kindName(decl))
				return 0, false
			}
		}
		w.cur = w.cur[:len(w.cur)-in.NArgs]
		if in.Op != OpInvokeStatic {
			if r := w.pop(); !isRef(r) {
				return wrong(r, "ref")
			}
		}
		if !void {
			w.push(callee.Return)
		}
	case OpNewArray:
		if n := w.pop(); n.Kind != KindInt {
			return wrong(n, "int")
		}
		w.push(Type{Kind: KindArray, Elem: in.TypeRef})
	case OpALoad, OpAStore:
		var v Type
		if in.Op == OpAStore {
			v = w.pop()
		}
		i, arr := w.pop(), w.pop()
		switch {
		case i.Kind != KindInt:
			return wrong(i, "int")
		case arr.Kind == kindNull:
			return 0, false // throws
		case arr.Kind != KindArray:
			return wrong(arr, "array")
		case in.Op == OpALoad:
			w.push(*arr.Elem)
		case !fits(v, *arr.Elem):
			w.report(pc, "astore of %s to %s", kindName(v), kindName(arr))
			return 0, false
		}
	case OpArrayLen:
		if arr := w.pop(); arr.Kind != KindArray && arr.Kind != kindNull {
			return wrong(arr, "array")
		}
		w.push(Int)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		b, a := w.pop(), w.pop()
		if !isNumber(a) || !isNumber(b) {
			w.report(pc, "%s of %s and %s", in.Op, kindName(a), kindName(b))
			return 0, false
		}
		if b.Kind == KindFloat {
			a = b
		}
		w.push(a)
	case OpNeg:
		if a := w.cur[len(w.cur)-1]; !isNumber(a) {
			return wrong(a, "number")
		}
	case OpNot:
		if a := w.cur[len(w.cur)-1]; a.Kind != KindBool {
			return wrong(a, "bool")
		}
	case OpConcat:
		b, a := w.pop(), w.pop()
		if a.Kind != KindString || b.Kind != KindString {
			w.report(pc, "%s of %s and %s", in.Op, kindName(a), kindName(b))
			return 0, false
		}
		w.push(String)
	case OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		b, a := w.pop(), w.pop()
		ok := (isNumber(a) && isNumber(b)) || (a.Kind == KindString && b.Kind == KindString)
		if in.Op == OpCmpEq || in.Op == OpCmpNe {
			ok = ok || (a.Kind == KindBool && b.Kind == KindBool) || (refLike(a) && refLike(b))
		}
		if !ok {
			w.report(pc, "%s of %s and %s", in.Op, kindName(a), kindName(b))
			return 0, false
		}
		w.push(Bool)
	case OpJump:
		w.join(int(in.A), w.cur)
		return 0, false
	case OpJumpIf, OpJumpIfNot:
		if c := w.pop(); c.Kind != KindBool {
			return wrong(c, "bool")
		}
		w.join(int(in.A), w.cur)
	case OpCast:
		v, to := w.pop(), *in.TypeRef
		if !castable(v, to) {
			w.report(pc, "cast of %s to %s", kindName(v), kindName(to))
			return 0, false
		}
		if v.Kind == kindNull {
			to = nullType
		}
		w.push(to)
	case OpInstanceOf:
		if v := w.pop(); !refLike(v) {
			return wrong(v, "ref")
		}
		w.push(Bool)
	case OpReturn:
		return 0, false
	case OpReturnValue:
		if v := w.pop(); !fits(v, w.m.Return) {
			w.report(pc, "return of %s from a method returning %s", kindName(v), kindName(w.m.Return))
		}
		return 0, false
	case OpThrow:
		if r := w.pop(); !isRef(r) {
			return wrong(r, "ref")
		}
		return 0, false
	}
	return pc + 1, true
}

// isRef reports whether a value of walk type t may be an object
// reference: a ref or a null.
func isRef(t Type) bool { return t.Kind == KindRef || t.Kind == kindNull }

// isNumber reports whether a value of walk type t is an int or a float.
func isNumber(t Type) bool { return t.Kind == KindInt || t.Kind == KindFloat }

// slot returns the state index of the local the load or store at pc
// names.
func (w *walk) slot(pc int, in *Instr) int {
	if w.slots != nil {
		return int(w.slots[pc])
	}
	return int(in.A)
}

// castable reports whether cast converts a value of walk type v to to:
// an int, float or bool to int, an int or float to float, a string or
// bool to its own type, and a reference or array to a type of its own
// kind (the interpreter tests the class or element type, and throws when
// it differs).  A null casts to any reference or array.
func castable(v, to Type) bool {
	switch to.Kind {
	case KindInt:
		return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindBool
	case KindFloat:
		return v.Kind == KindInt || v.Kind == KindFloat
	case KindRef, KindArray:
		return v.Kind == to.Kind || v.Kind == kindNull
	case KindString, KindBool:
		return v.Kind == to.Kind
	}
	return false
}
