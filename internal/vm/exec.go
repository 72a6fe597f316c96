package vm

import (
	"fmt"
	"math"
	"sync/atomic"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
)

// maxArrayLen is the longest array newarray builds: the wire's bound on a
// sequence, so every array a program makes is one a call can carry.
// Past it newarray throws, as it does for a negative length.
const maxArrayLen = 1 << 24

// invoke activates c on the arguments already in place at
// env.slab[base : base+c.nargs] (receiver first for instance methods):
// a native is called on a view of them, bytecode runs in a frame that
// starts at them.  Static methods trigger their class's initialisation.
// A result comes back in env.slab[base], the slot where the caller's push
// would put it; ret reports whether there is one.
func (v *VM) invoke(env *Env, c *code, base int) (ret bool, thrown *Thrown, err error) {
	m := c.m
	if m.Abstract {
		return false, nil, &FaultError{Msg: fmt.Sprintf("abstract method %s.%s invoked", c.class.Name, m.Name)}
	}
	if m.Static && !c.state.done.Load() {
		if thrown, err := v.initClass(env, c.class); thrown != nil || err != nil {
			return false, thrown, err
		}
	}
	if env.depth >= v.maxDepth {
		return false, nil, &FaultError{Msg: "call depth limit exceeded"}
	}
	env.depth++
	sp := env.sp
	if m.Native {
		ret, thrown, err = v.callNative(env, c, base)
	} else {
		ret, thrown, err = v.run(env, c, base)
	}
	env.sp = sp
	env.depth--
	return ret, thrown, err
}

// fault reports malformed code at pc of c.
func (c *code) fault(pc int, format string, a ...any) (bool, *Thrown, error) {
	return false, nil, &FaultError{
		Msg: fmt.Sprintf("%s.%s pc=%d: %s", c.class.Name, c.m.Name, pc, fmt.Sprintf(format, a...)),
	}
}

// run interprets one bytecode activation in the frame that starts at
// env.slab[base].  A field or static access reads or writes one slot of
// the object or class monitor that holds the field, atomically (see
// Object); native methods may release the execution's gates via
// Env.RunUnlocked.
//
// f is the frame's window on the slab: locals f[:nl], operand stack
// f[nl:sp].  Anything that can run other code (an invoke, a class
// initialiser) can grow — that is, move — the slab, so f is re-derived
// after it.  The frame is one slot longer than the deepest stack the link
// pass found, and the loop refuses to start an instruction with that slot
// taken: no instruction pushes more than one operand net, so a push never
// needs its own bounds test and code that outgrows its frame faults
// instead of writing into the next.
//
// Every throw site sets pendingThrow and jumps to the throw block at the
// end of the loop body, which looks the exception up in this frame's
// handler table at the site's pc.
func (v *VM) run(env *Env, c *code, base int) (bool, *Thrown, error) {
	b := c.body.Load()
	if b == nil {
		b = v.linkBody(c)
	}
	end := base + b.size
	env.reserve(end)
	if end > env.hi {
		env.hi = end
	}
	env.sp = end
	f := env.slab[base:end]
	nl := b.nlocals
	clear(f[c.nargs:nl])
	sp := nl

	m := c.m
	code := m.Code
	pc := 0
	var pendingThrow *Thrown

	for {
		if pc < 0 || pc >= len(code) {
			return c.fault(pc, "pc out of range (len=%d)", len(code))
		}
		if env.steps++; env.steps > v.maxSteps {
			return c.fault(pc, "step limit exceeded")
		}
		if sp >= len(f) {
			return c.fault(pc, "operand stack overflow")
		}

		in := &code[pc]
		switch in.Op {
		case ir.OpConstInt:
			f[sp] = IntV(in.A)
			sp++
		case ir.OpConstBool:
			f[sp] = BoolV(in.A != 0)
			sp++
		case ir.OpConstFloat:
			f[sp] = FloatV(in.F)
			sp++
		case ir.OpConstString:
			f[sp] = StringV(in.Str)
			sp++
		case ir.OpConstNull:
			if in.TypeRef != nil && in.TypeRef.IsArray() {
				f[sp] = Value{K: ir.KindArray}
			} else {
				f[sp] = NullV()
			}
			sp++

		case ir.OpLoad:
			if in.A < 0 || in.A >= int64(nl) {
				return c.fault(pc, "load: bad slot %d", in.A)
			}
			f[sp] = f[in.A]
			sp++
		case ir.OpStore:
			if in.A < 0 || in.A >= int64(nl) {
				return c.fault(pc, "store: bad slot %d", in.A)
			}
			if sp == nl {
				return c.fault(pc, "store: empty stack")
			}
			sp--
			f[in.A] = f[sp]

		case ir.OpDup:
			if sp == nl {
				return c.fault(pc, "dup: empty stack")
			}
			f[sp] = f[sp-1]
			sp++
		case ir.OpPop:
			if sp == nl {
				return c.fault(pc, "pop: empty stack")
			}
			sp--
		case ir.OpSwap:
			if sp-nl < 2 {
				return c.fault(pc, "swap: underflow")
			}
			f[sp-1], f[sp-2] = f[sp-2], f[sp-1]

		case ir.OpNew:
			at := &b.sites[pc]
			lk := at.Load()
			if lk == nil {
				cl := v.linked(in.Owner)
				if cl == nil {
					return false, nil, &FaultError{Msg: "init: unknown class " + in.Owner}
				}
				lk = &cl.self
				at.Store(lk)
			}
			if !lk.state.done.Load() {
				thrown, err := v.initClass(env, lk.class)
				f = env.slab[base:end]
				if err != nil {
					return false, nil, err
				}
				if thrown != nil {
					pendingThrow = thrown
					goto throw
				}
			}
			obj, err := v.alloc(lk.class, lk.state)
			if err != nil {
				return false, nil, err
			}
			f[sp] = RefV(obj)
			sp++

		case ir.OpGetField:
			if sp == nl {
				return c.fault(pc, "getfield: underflow")
			}
			ref := &f[sp-1]
			if isNull(ref) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass,
					fmt.Sprintf("read of field %s on null", in.Member))
				goto throw
			}
			if ref.K != ir.KindRef {
				return c.fault(pc, "getfield on non-ref %v", ref.K)
			}
			if !ref.O.load(ref, in.Member, &b.sites[pc]) {
				return c.fault(pc, "no field %s on %s", in.Member, ref.O.ClassName())
			}

		case ir.OpPutField:
			if sp-nl < 2 {
				return c.fault(pc, "putfield: underflow")
			}
			sp -= 2
			ref := &f[sp]
			if isNull(ref) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass,
					fmt.Sprintf("write of field %s on null", in.Member))
				goto throw
			}
			if ref.K != ir.KindRef {
				return c.fault(pc, "putfield on non-ref %v", ref.K)
			}
			switch ref.O.store(env, in.Member, &b.sites[pc], &f[sp+1]) {
			case absent:
				return c.fault(pc, "no field %s on %s", in.Member, ref.O.ClassName())
			case misfit:
				return c.fault(pc, "putfield of %s to field %s of %s", f[sp+1].K, in.Member, ref.O.ClassName())
			}

		case ir.OpGetStatic, ir.OpPutStatic:
			if in.Op == ir.OpPutStatic && sp == nl {
				return c.fault(pc, "putstatic: underflow")
			}
			at := &b.sites[pc]
			lk := at.Load()
			if lk == nil {
				// Static fields are inherited: link to the declaring class.
				dc, _, err := v.prog.ResolveField(in.Owner, in.Member)
				if err != nil {
					return false, nil, &FaultError{Msg: err.Error()}
				}
				lk = &v.classLink(dc).self
				at.Store(lk)
			}
			if !lk.state.done.Load() {
				thrown, err := v.initClass(env, lk.class)
				f = env.slab[base:end]
				if err != nil {
					return false, nil, err
				}
				if thrown != nil {
					pendingThrow = thrown
					goto throw
				}
			}
			// The site's record is the declaring class's until the first
			// access finds the field, then the field's slot in the class
			// monitor's layout, which names the class too.
			res := stored
			if mon := &lk.state.monitor; in.Op == ir.OpGetStatic {
				if !mon.load(&f[sp], in.Member, at) {
					res = absent
				}
				sp++
			} else {
				sp--
				res = mon.store(env, in.Member, at, &f[sp])
			}
			switch res {
			case absent:
				return false, nil, &FaultError{Msg: fmt.Sprintf("field %s.%s is not static", lk.class.Name, in.Member)}
			case misfit:
				return c.fault(pc, "putstatic of %s to field %s.%s", f[sp].K, lk.class.Name, in.Member)
			}

		case ir.OpInvokeStatic, ir.OpInvokeVirtual, ir.OpInvokeInterface, ir.OpInvokeSpecial:
		dispatch:
			at := &b.sites[pc]
			lk := at.Load()
			if in.Op == ir.OpInvokeStatic {
				if sp-nl < in.NArgs {
					return c.fault(pc, "invokestatic: underflow")
				}
			} else {
				if sp-nl < in.NArgs+1 {
					return c.fault(pc, "%s: underflow", in.Op)
				}
				ref := &f[sp-in.NArgs-1]
				if isNull(ref) {
					pendingThrow = v.throwSys(stdlib.NullPointerClass,
						fmt.Sprintf("invoke of %s.%s on null", in.Owner, in.Member))
					goto throw
				}
				if in.Op != ir.OpInvokeSpecial {
					// Dynamic dispatch: the site remembers the last
					// receiver class and what the method resolved to there.
					if ref.K != ir.KindRef {
						return c.fault(pc, "%s on non-ref value", in.Op)
					}
					if rc := ref.O.Class(); lk == nil || lk.class != rc {
						var err error
						if lk, err = v.resolve(rc, in.Member, in.NArgs); err != nil {
							return false, nil, &FaultError{Msg: err.Error()}
						}
						at.Store(lk)
					}
				}
			}
			if lk == nil {
				// Exact dispatch on Owner: statics, constructors, super calls.
				var err error
				if lk, err = v.lookup(in.Owner, in.Member, in.NArgs); err != nil {
					return false, nil, &FaultError{Msg: err.Error()}
				}
				at.Store(lk)
			}
			callee := lk.code
			if in.Op == ir.OpInvokeStatic && callee.nargs != in.NArgs {
				return c.fault(pc, "invokestatic of instance method %s.%s", in.Owner, in.Member)
			}
			// Accessors are instance methods, which invokestatic refused.
			if callee.accessor != notAccessor {
				if next, ok := v.accessorAt(env, callee, f, sp); ok {
					sp = next
					break
				}
			}
			// The callee's frame starts at its arguments, and its result
			// comes back in the frame's first slot: where the push goes,
			// unless a static method reached through an instance invoke
			// left the receiver below.
			cb := sp - callee.nargs
			ret, thrown, err := v.invoke(env, callee, base+cb)
			f = env.slab[base:end]
			if err != nil {
				// An accessor faults on a receiver that a migration
				// morphed after dispatch: it left its arguments where
				// they were, so dispatch again on the receiver's class.
				if callee.accessor != notAccessor && in.Op != ir.OpInvokeSpecial && f[cb].O.Class() != lk.class {
					goto dispatch
				}
				return false, nil, err
			}
			sp -= in.NArgs
			if in.Op != ir.OpInvokeStatic {
				sp--
			}
			if thrown != nil {
				pendingThrow = thrown
				goto throw
			}
			if ret {
				if sp != cb {
					f[sp] = f[cb]
				}
				sp++
			}

		case ir.OpNewArray:
			if sp == nl {
				return c.fault(pc, "newarray: underflow")
			}
			if in.TypeRef == nil {
				return c.fault(pc, "newarray: missing element type")
			}
			n := &f[sp-1]
			if n.I < 0 || n.I > maxArrayLen {
				pendingThrow = v.throwSys(stdlib.IndexBoundsClass,
					fmt.Sprintf("array length %d", n.I))
				goto throw
			}
			*n = ArrayV(NewArray(*in.TypeRef, int(n.I)))

		case ir.OpALoad:
			if sp-nl < 2 {
				return c.fault(pc, "aload: underflow")
			}
			sp--
			idx, arr := f[sp].I, &f[sp-1]
			if isNull(arr) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "index of null array")
				goto throw
			}
			if arr.K != ir.KindArray {
				return c.fault(pc, "aload on non-array %v", arr.K)
			}
			if idx < 0 || int(idx) >= len(arr.A.Vals) {
				pendingThrow = v.throwSys(stdlib.IndexBoundsClass,
					fmt.Sprintf("index %d out of range %d", idx, len(arr.A.Vals)))
				goto throw
			}
			*arr = arr.A.Vals[idx]

		case ir.OpAStore:
			if sp-nl < 3 {
				return c.fault(pc, "astore: underflow")
			}
			sp -= 3
			arr, idx := &f[sp], f[sp+1].I
			if isNull(arr) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "store to null array")
				goto throw
			}
			if arr.K != ir.KindArray {
				return c.fault(pc, "astore on non-array %v", arr.K)
			}
			if idx < 0 || int(idx) >= len(arr.A.Vals) {
				pendingThrow = v.throwSys(stdlib.IndexBoundsClass,
					fmt.Sprintf("index %d out of range %d", idx, len(arr.A.Vals)))
				goto throw
			}
			arr.A.Vals[idx] = f[sp+2]

		case ir.OpArrayLen:
			if sp == nl {
				return c.fault(pc, "arraylen: underflow")
			}
			arr := &f[sp-1]
			if isNull(arr) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "length of null array")
				goto throw
			}
			if arr.K != ir.KindArray {
				return c.fault(pc, "arraylen on non-array %v", arr.K)
			}
			*arr = IntV(int64(len(arr.A.Vals)))

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
			if sp-nl < 2 {
				return c.fault(pc, "%s: underflow", in.Op)
			}
			sp--
			x, y := &f[sp-1], &f[sp]
			if x.K == ir.KindFloat || y.K == ir.KindFloat {
				*x = floatArith(in.Op, numAsFloat(x), numAsFloat(y))
				break
			}
			switch in.Op {
			case ir.OpAdd:
				*x = IntV(x.I + y.I)
			case ir.OpSub:
				*x = IntV(x.I - y.I)
			case ir.OpMul:
				*x = IntV(x.I * y.I)
			case ir.OpDiv:
				if y.I == 0 {
					pendingThrow = v.throwSys(stdlib.ArithmeticClass, "division by zero")
					goto throw
				}
				*x = IntV(x.I / y.I)
			case ir.OpRem:
				if y.I == 0 {
					pendingThrow = v.throwSys(stdlib.ArithmeticClass, "remainder by zero")
					goto throw
				}
				*x = IntV(x.I % y.I)
			}

		case ir.OpNeg:
			if sp == nl {
				return c.fault(pc, "neg: underflow")
			}
			if a := &f[sp-1]; a.K == ir.KindFloat {
				*a = FloatV(-a.F)
			} else {
				*a = IntV(-a.I)
			}

		case ir.OpNot:
			if sp == nl {
				return c.fault(pc, "not: underflow")
			}
			f[sp-1] = BoolV(f[sp-1].I == 0)

		case ir.OpConcat:
			if sp-nl < 2 {
				return c.fault(pc, "concat: underflow")
			}
			sp--
			f[sp-1] = StringV(f[sp-1].S + f[sp].S)

		case ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
			if sp-nl < 2 {
				return c.fault(pc, "%s: underflow", in.Op)
			}
			sp--
			res, err := compare(in.Op, &f[sp-1], &f[sp])
			if err != nil {
				return c.fault(pc, "%v", err)
			}
			f[sp-1] = BoolV(res)

		case ir.OpJump:
			pc = int(in.A)
			continue
		case ir.OpJumpIf:
			if sp == nl {
				return c.fault(pc, "jump.if: underflow")
			}
			sp--
			if f[sp].Bool() {
				pc = int(in.A)
				continue
			}
		case ir.OpJumpIfNot:
			if sp == nl {
				return c.fault(pc, "jump.ifnot: underflow")
			}
			sp--
			if !f[sp].Bool() {
				pc = int(in.A)
				continue
			}

		case ir.OpCast:
			if sp == nl {
				return c.fault(pc, "cast: underflow")
			}
			if in.TypeRef == nil {
				return c.fault(pc, "cast: missing target type")
			}
			res, thrown, err := v.cast(f[sp-1], in.TypeRef, &b.sites[pc])
			if err != nil {
				return c.fault(pc, "%v", err)
			}
			if thrown != nil {
				pendingThrow = thrown
				goto throw
			}
			f[sp-1] = res

		case ir.OpInstanceOf:
			if sp == nl {
				return c.fault(pc, "instanceof: underflow")
			}
			if in.TypeRef == nil {
				return c.fault(pc, "instanceof: missing target type")
			}
			val := &f[sp-1]
			*val = BoolV(val.K == ir.KindRef && val.O != nil && in.TypeRef.Kind == ir.KindRef &&
				v.kindAt(&b.sites[pc], val.O, in.TypeRef.Name).ok)

		case ir.OpReturn:
			return false, nil, nil
		case ir.OpReturnValue:
			if sp == nl {
				return c.fault(pc, "return.v: empty stack")
			}
			f[0] = f[sp-1]
			return true, nil, nil

		case ir.OpThrow:
			if sp == nl {
				return c.fault(pc, "throw: empty stack")
			}
			sp--
			ref := &f[sp]
			if isNull(ref) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "throw of null")
				goto throw
			}
			if ref.K != ir.KindRef || !v.kind(ref.O.Class(), ir.ThrowableClass).sub {
				return c.fault(pc, "throw of non-throwable %s", *ref)
			}
			pendingThrow = &Thrown{Obj: ref.O}
			goto throw

		default:
			return c.fault(pc, "unimplemented opcode %s", in.Op)
		}
		pc++
		continue

	throw:
		h := v.handler(m, pc, pendingThrow)
		if h == nil {
			return false, pendingThrow, nil
		}
		f[nl] = RefV(pendingThrow.Obj)
		sp = nl + 1
		pc = h.Target
	}
}

// accessorAt runs callee, a trivial accessor, at its call site on the
// operands on top of f[:sp] (the receiver, then a setter's value) instead
// of activating it, and returns the caller's new stack top.  It charges
// the steps the activation would have, and shares the accessor's own
// field-site caches with it.  Whenever the activation would do anything
// but read or write the field — a receiver that is no object, the depth
// limit, a step budget that runs out inside the accessor, a field the
// receiver lacks — it reports false having changed nothing, and the call
// goes through invoke, which faults exactly as it always has.
func (v *VM) accessorAt(env *Env, callee *code, f []Value, sp int) (int, bool) {
	n := int64(callee.nargs) + 2 // the loads, the field access, the return
	recv := &f[sp-callee.nargs]
	if env.depth >= v.maxDepth || env.steps > v.maxSteps-n || recv.K != ir.KindRef || recv.O == nil {
		return sp, false
	}
	b := callee.body.Load()
	if b == nil {
		b = v.linkBody(callee)
	}
	code := callee.m.Code
	if callee.accessor == getter {
		if !recv.O.load(recv, code[1].Member, &b.sites[1]) {
			return sp, false
		}
	} else {
		if recv.O.store(env, code[2].Member, &b.sites[2], &f[sp-1]) != stored {
			return sp, false
		}
		sp -= 2
	}
	env.steps += n
	return sp, true
}

// handler returns the first entry of m's handler table that covers pc
// and catches t, or nil when t leaves the frame.
func (v *VM) handler(m *ir.Method, pc int, t *Thrown) *ir.TryHandler {
	for i := range m.Handlers {
		if h := &m.Handlers[i]; pc >= h.Start && pc < h.End && v.catches(h, t) {
			return h
		}
	}
	return nil
}

func (v *VM) catches(h *ir.TryHandler, t *Thrown) bool {
	if h.CatchClass == "" {
		return true
	}
	if t.Obj == nil {
		return false
	}
	return v.kind(t.Obj.Class(), h.CatchClass).sub
}

// kindAt is kind for a cast/instanceof site, which remembers the verdict
// for the class of the last object it saw.
func (v *VM) kindAt(at *atomic.Pointer[link], o *Object, name string) *link {
	c := o.Class()
	k := at.Load()
	if k == nil || k.class != c {
		k = v.kind(c, name)
		at.Store(k)
	}
	return k
}

// floatArith is add, sub, mul, div or rem on operands of which at least
// one is a float.
func floatArith(op ir.Op, a, b float64) Value {
	switch op {
	case ir.OpAdd:
		return FloatV(a + b)
	case ir.OpSub:
		return FloatV(a - b)
	case ir.OpMul:
		return FloatV(a * b)
	case ir.OpDiv:
		return FloatV(a / b)
	default:
		return FloatV(math.Mod(a, b))
	}
}

func numericKind(k ir.Kind) bool { return k == ir.KindInt || k == ir.KindFloat }

func numAsFloat(v *Value) float64 {
	if v.K == ir.KindFloat {
		return v.F
	}
	return float64(v.I)
}

func compare(op ir.Op, a, b *Value) (bool, error) {
	// Equality on references is identity; on primitives, value equality.
	if op == ir.OpCmpEq || op == ir.OpCmpNe {
		eq, err := valuesEqual(a, b)
		if err != nil {
			return false, err
		}
		if op == ir.OpCmpNe {
			return !eq, nil
		}
		return eq, nil
	}
	var c int
	switch {
	case a.K == ir.KindString && b.K == ir.KindString:
		switch {
		case a.S < b.S:
			c = -1
		case a.S > b.S:
			c = 1
		}
	case a.K == ir.KindFloat || b.K == ir.KindFloat:
		af, bf := numAsFloat(a), numAsFloat(b)
		switch {
		case af < bf:
			c = -1
		case af > bf:
			c = 1
		}
	case a.K == ir.KindInt && b.K == ir.KindInt:
		switch {
		case a.I < b.I:
			c = -1
		case a.I > b.I:
			c = 1
		}
	default:
		return false, fmt.Errorf("cannot order %v and %v", a.K, b.K)
	}
	switch op {
	case ir.OpCmpLt:
		return c < 0, nil
	case ir.OpCmpLe:
		return c <= 0, nil
	case ir.OpCmpGt:
		return c > 0, nil
	case ir.OpCmpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("bad comparison op %s", op)
}

func refLike(v *Value) bool { return v.K == ir.KindRef || v.K == ir.KindArray }

func valuesEqual(a, b *Value) (bool, error) {
	switch {
	case a.K == ir.KindRef && b.K == ir.KindRef:
		return a.O == b.O, nil
	case a.K == ir.KindArray && b.K == ir.KindArray:
		return a.A == b.A, nil
	case refLike(a) && refLike(b):
		// Mixed object/array comparison (e.g. a null literal, which is
		// typed as an object reference, against an array): equal only
		// when both are null.
		return isNull(a) && isNull(b), nil
	case a.K == ir.KindString && b.K == ir.KindString:
		return a.S == b.S, nil
	case a.K == ir.KindBool && b.K == ir.KindBool:
		return a.I == b.I, nil
	case numericKind(a.K) && numericKind(b.K):
		if a.K == ir.KindFloat || b.K == ir.KindFloat {
			return numAsFloat(a) == numAsFloat(b), nil
		}
		return a.I == b.I, nil
	default:
		return false, fmt.Errorf("cannot compare %v and %v", a.K, b.K)
	}
}

// cast applies a checked reference cast or a numeric conversion.
func (v *VM) cast(val Value, target *ir.Type, at *atomic.Pointer[link]) (Value, *Thrown, error) {
	switch target.Kind {
	case ir.KindInt:
		if val.K == ir.KindFloat {
			return IntV(int64(val.F)), nil, nil
		}
		if val.K == ir.KindInt || val.K == ir.KindBool {
			return IntV(val.I), nil, nil
		}
	case ir.KindFloat:
		if val.K == ir.KindInt {
			return FloatV(float64(val.I)), nil, nil
		}
		if val.K == ir.KindFloat {
			return val, nil, nil
		}
	case ir.KindRef:
		if val.K == ir.KindArray && val.A == nil {
			return NullV(), nil, nil
		}
		if val.K == ir.KindRef {
			if val.O == nil || v.kindAt(at, val.O, target.Name).ok {
				return val, nil, nil
			}
			return Value{}, v.throwSys(stdlib.ClassCastClass,
				fmt.Sprintf("%s is not a %s", val.O.ClassName(), target.Name)), nil
		}
	case ir.KindArray:
		if val.K == ir.KindRef && val.O == nil {
			return Value{K: ir.KindArray}, nil, nil
		}
		if val.K == ir.KindArray {
			if val.A == nil || val.A.Elem.Equal(*target.Elem) {
				return val, nil, nil
			}
			return Value{}, v.throwSys(stdlib.ClassCastClass,
				fmt.Sprintf("%s[] is not a %s[]", val.A.Elem, target.Elem)), nil
		}
	case ir.KindString:
		if val.K == ir.KindString {
			return val, nil, nil
		}
	case ir.KindBool:
		if val.K == ir.KindBool {
			return val, nil, nil
		}
	}
	return Value{}, nil, fmt.Errorf("cannot cast %v to %s", val.K, target)
}
