package vm

import (
	"cmp"
	"fmt"
	"math"
	"strings"
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

// fault reports a fault at pc of c that the verifier does not rule out:
// the step limit, a receiver without the field a site names, or a throw
// of an object that is not a Throwable.
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
// Only code the verifier accepted runs (see VM.linkBody), and values
// from outside are checked where they enter (VM.enter, VM.callNative), so
// run tests nothing about the code's shape or its values' kinds: every
// pc it reaches is in the code, every operand an instruction pops is
// there and of the kind it takes, every slot a load or store names is in
// the frame and set, and every type and static field an instruction
// names resolves.  What it tests is what the verifier does not prove:
// nulls, indexes and divisors, the class of a receiver (a field site
// finds no field on an object that lacks it, as a morphed proxy does, or
// whose field of that name has another shape than the verified one; a
// thrown object must be a Throwable), and the step and depth limits.
//
// f is the frame's window on the slab: locals f[:nl], operand stack
// f[nl:sp].  The frame holds the deepest stack the verifier's walk found,
// so a push never needs a bounds test.  Anything that can run other code
// (an invoke, a class initialiser) can grow — that is, move — the slab,
// so f is re-derived after it.
//
// Every throw site sets pendingThrow and jumps to the throw block at the
// end of the loop body, which looks the exception up in this frame's
// handler table at the site's pc.
func (v *VM) run(env *Env, c *code, base int) (bool, *Thrown, error) {
	b := c.body.Load()
	if b == nil {
		b = v.linkBody(c)
	}
	if b.refused != nil {
		return false, nil, b.refused
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
		if env.steps++; env.steps > v.maxSteps {
			return c.fault(pc, "step limit exceeded")
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
			f[sp] = f[in.A]
			sp++
		case ir.OpStore:
			sp--
			f[in.A] = f[sp]

		case ir.OpDup:
			f[sp] = f[sp-1]
			sp++
		case ir.OpPop:
			sp--
		case ir.OpSwap:
			f[sp-1], f[sp-2] = f[sp-2], f[sp-1]

		case ir.OpNew:
			at := &b.sites[pc]
			lk := at.Load()
			if lk == nil {
				lk = &v.linked(in.Owner).self
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
			obj, _ := v.alloc(lk.class, lk.state) // the verifier found the class instantiable
			f[sp] = RefV(obj)
			sp++

		case ir.OpGetField:
			ref := &f[sp-1]
			if isNull(ref) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass,
					fmt.Sprintf("read of field %s on null", in.Member))
				goto throw
			}
			if !ref.O.load(ref, in.Member, &b.sites[pc]) {
				return c.fault(pc, "no field %s on %s", in.Member, ref.O.ClassName())
			}

		case ir.OpPutField:
			sp -= 2
			ref := &f[sp]
			if isNull(ref) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass,
					fmt.Sprintf("write of field %s on null", in.Member))
				goto throw
			}
			if !ref.O.store(env, in.Member, &b.sites[pc], &f[sp+1]) {
				return c.fault(pc, "no field %s on %s", in.Member, ref.O.ClassName())
			}

		case ir.OpGetStatic, ir.OpPutStatic:
			at := &b.sites[pc]
			lk := at.Load()
			if lk == nil {
				// Static fields are inherited: link to the declaring class,
				// which the verifier found.
				dc, _, _ := v.prog.ResolveField(in.Owner, in.Member)
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
			// monitor's layout, which names the class too.  The monitor
			// has no slots when the class's superclass failed to
			// initialise.
			var found bool
			if mon := &lk.state.monitor; in.Op == ir.OpGetStatic {
				found = mon.load(&f[sp], in.Member, at)
				sp++
			} else {
				sp--
				found = mon.store(env, in.Member, at, &f[sp])
			}
			if !found {
				return false, nil, &FaultError{Msg: fmt.Sprintf("no static field %s.%s", lk.class.Name, in.Member)}
			}

		case ir.OpInvokeStatic, ir.OpInvokeVirtual, ir.OpInvokeInterface, ir.OpInvokeSpecial:
		dispatch:
			at := &b.sites[pc]
			lk := at.Load()
			if in.Op != ir.OpInvokeStatic {
				ref := &f[sp-in.NArgs-1]
				if isNull(ref) {
					pendingThrow = v.throwSys(stdlib.NullPointerClass,
						fmt.Sprintf("invoke of %s.%s on null", in.Owner, in.Member))
					goto throw
				}
				if in.Op != ir.OpInvokeSpecial {
					// Dynamic dispatch: the site remembers the last
					// receiver class and what the method resolved to there.
					if rc := ref.O.Class(); lk == nil || lk.class != rc {
						var err error
						if lk, err = v.dispatch(rc, in.Owner, in.Member, in.NArgs); err != nil {
							return false, nil, &FaultError{Msg: err.Error()}
						}
						at.Store(lk)
					}
				}
			}
			if lk == nil {
				// Exact dispatch on Owner: statics, constructors, super
				// calls.  The verifier resolved the method.
				lk, _ = v.lookup(in.Owner, in.Member, in.NArgs)
				at.Store(lk)
			}
			callee := lk.code
			if callee.accessor != notAccessor {
				if next, ok := v.accessorAt(env, callee, f, sp); ok {
					sp = next
					break
				}
			}
			// The callee's frame starts at its arguments, and its result
			// comes back in the frame's first slot, where the push goes.
			// A static method reached through an instance invoke (one
			// that hides an instance method in a subclass) takes no
			// receiver, so its arguments move down over it.
			cb := sp - callee.nargs
			if callee.m.Static && in.Op != ir.OpInvokeStatic {
				cb--
				copy(f[cb:], f[cb+1:sp])
			}
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
			sp = cb
			if thrown != nil {
				pendingThrow = thrown
				goto throw
			}
			if ret {
				sp++
			}

		case ir.OpNewArray:
			n := &f[sp-1]
			if n.I < 0 || n.I > maxArrayLen {
				pendingThrow = v.throwSys(stdlib.IndexBoundsClass,
					fmt.Sprintf("array length %d", n.I))
				goto throw
			}
			*n = ArrayV(NewArray(*in.TypeRef, int(n.I)))

		case ir.OpALoad:
			sp--
			idx, arr := f[sp].I, &f[sp-1]
			if isNull(arr) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "index of null array")
				goto throw
			}
			if idx < 0 || int(idx) >= len(arr.A.Vals) {
				pendingThrow = v.throwSys(stdlib.IndexBoundsClass,
					fmt.Sprintf("index %d out of range %d", idx, len(arr.A.Vals)))
				goto throw
			}
			*arr = arr.A.Vals[idx]

		case ir.OpAStore:
			sp -= 3
			arr, idx := &f[sp], f[sp+1].I
			if isNull(arr) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "store to null array")
				goto throw
			}
			if idx < 0 || int(idx) >= len(arr.A.Vals) {
				pendingThrow = v.throwSys(stdlib.IndexBoundsClass,
					fmt.Sprintf("index %d out of range %d", idx, len(arr.A.Vals)))
				goto throw
			}
			arr.A.Vals[idx] = f[sp+2]

		case ir.OpArrayLen:
			arr := &f[sp-1]
			if isNull(arr) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "length of null array")
				goto throw
			}
			*arr = IntV(int64(len(arr.A.Vals)))

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
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
			if a := &f[sp-1]; a.K == ir.KindFloat {
				*a = FloatV(-a.F)
			} else {
				*a = IntV(-a.I)
			}

		case ir.OpNot:
			f[sp-1] = BoolV(f[sp-1].I == 0)

		case ir.OpConcat:
			sp--
			f[sp-1] = StringV(f[sp-1].S + f[sp].S)

		case ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
			sp--
			f[sp-1] = BoolV(compare(in.Op, &f[sp-1], &f[sp]))

		case ir.OpJump:
			pc = int(in.A)
			continue
		case ir.OpJumpIf:
			sp--
			if f[sp].Bool() {
				pc = int(in.A)
				continue
			}
		case ir.OpJumpIfNot:
			sp--
			if !f[sp].Bool() {
				pc = int(in.A)
				continue
			}

		case ir.OpCast:
			res, thrown := v.cast(f[sp-1], in.TypeRef, &b.sites[pc])
			if thrown != nil {
				pendingThrow = thrown
				goto throw
			}
			f[sp-1] = res

		case ir.OpInstanceOf:
			val := &f[sp-1]
			*val = BoolV(val.K == ir.KindRef && val.O != nil && in.TypeRef.Kind == ir.KindRef &&
				v.kindAt(&b.sites[pc], val.O, in.TypeRef.Name).ok)

		case ir.OpReturn:
			return false, nil, nil
		case ir.OpReturnValue:
			f[0] = f[sp-1]
			return true, nil, nil

		case ir.OpThrow:
			sp--
			ref := &f[sp]
			if isNull(ref) {
				pendingThrow = v.throwSys(stdlib.NullPointerClass, "throw of null")
				goto throw
			}
			if !v.kind(ref.O.Class(), ir.ThrowableClass).sub {
				return c.fault(pc, "throw of non-throwable %s", *ref)
			}
			pendingThrow = &Thrown{Obj: ref.O}
			goto throw
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
// but read or write the field — a method the verifier refused, the depth
// limit, a step budget that runs out inside the accessor, a field the
// receiver lacks — it reports false having
// changed nothing, and the call goes through invoke, which faults exactly
// as it always has.
func (v *VM) accessorAt(env *Env, callee *code, f []Value, sp int) (int, bool) {
	n := int64(callee.nargs) + 2 // the loads, the field access, the return
	recv := &f[sp-callee.nargs]
	if env.depth >= v.maxDepth || env.steps > v.maxSteps-n {
		return sp, false
	}
	b := callee.body.Load()
	if b == nil {
		b = v.linkBody(callee)
	}
	if b.refused != nil {
		return sp, false
	}
	code := callee.m.Code
	if callee.accessor == getter {
		if !recv.O.load(recv, code[1].Member, &b.sites[1]) {
			return sp, false
		}
	} else {
		if !recv.O.store(env, code[2].Member, &b.sites[2], &f[sp-1]) {
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

func numAsFloat(v *Value) float64 {
	if v.K == ir.KindFloat {
		return v.F
	}
	return float64(v.I)
}

// compare is a comparison of operands the verifier found comparable:
// numbers or strings, and for equality also bools or references.
func compare(op ir.Op, a, b *Value) bool {
	switch op {
	case ir.OpCmpEq:
		return valuesEqual(a, b)
	case ir.OpCmpNe:
		return !valuesEqual(a, b)
	}
	var c int
	switch {
	case a.K == ir.KindString:
		c = strings.Compare(a.S, b.S)
	case a.K == ir.KindInt && b.K == ir.KindInt:
		c = cmp.Compare(a.I, b.I)
	case numAsFloat(a) < numAsFloat(b):
		c = -1
	case numAsFloat(a) > numAsFloat(b):
		c = 1
	}
	switch op {
	case ir.OpCmpLt:
		return c < 0
	case ir.OpCmpLe:
		return c <= 0
	case ir.OpCmpGt:
		return c > 0
	}
	return c >= 0
}

// valuesEqual is equality of two operands the verifier found comparable:
// identity on references, value equality otherwise.
func valuesEqual(a, b *Value) bool {
	switch {
	case a.K == ir.KindRef && b.K == ir.KindRef:
		return a.O == b.O
	case a.K == ir.KindArray && b.K == ir.KindArray:
		return a.A == b.A
	case a.K == ir.KindRef || a.K == ir.KindArray:
		// An object against an array (a null literal, typed as an object
		// reference, against an array): equal only when both are null.
		return isNull(a) && isNull(b)
	case a.K == ir.KindString:
		return a.S == b.S
	case a.K == ir.KindFloat || b.K == ir.KindFloat:
		return numAsFloat(a) == numAsFloat(b)
	}
	return a.I == b.I
}

// cast applies a conversion or checked cast the verifier found possible:
// int, float or bool to int, int or float to float, a reference or null
// to a class, an array or null to an array type, and a string or bool to
// its own type.
func (v *VM) cast(val Value, target *ir.Type, at *atomic.Pointer[link]) (Value, *Thrown) {
	switch target.Kind {
	case ir.KindInt:
		if val.K == ir.KindFloat {
			return IntV(int64(val.F)), nil
		}
		return IntV(val.I), nil
	case ir.KindFloat:
		if val.K == ir.KindInt {
			return FloatV(float64(val.I)), nil
		}
	case ir.KindRef:
		if val.K == ir.KindArray { // a null array
			return NullV(), nil
		}
		if val.O != nil && !v.kindAt(at, val.O, target.Name).ok {
			return Value{}, v.throwSys(stdlib.ClassCastClass,
				fmt.Sprintf("%s is not a %s", val.O.ClassName(), target.Name))
		}
	case ir.KindArray:
		if val.K == ir.KindRef { // a null reference
			return Value{K: ir.KindArray}, nil
		}
		if val.A != nil && !val.A.Elem.Equal(*target.Elem) {
			return Value{}, v.throwSys(stdlib.ClassCastClass,
				fmt.Sprintf("%s[] is not a %s[]", val.A.Elem, target.Elem))
		}
	}
	return val, nil
}
