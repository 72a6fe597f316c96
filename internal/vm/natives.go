package vm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"rafda/internal/ir"
	"rafda/internal/stdlib"
	"rafda/internal/verifier"
)

// nativeBinding is a native method's implementation: an exact
// registration, or else its class's fallback handler.
type nativeBinding struct {
	exact NativeFunc
	class ClassNativeFunc
}

// callNative dispatches the native method c on the arguments at
// env.slab[base:]: exact registration first, then the owning class's
// fallback handler (used by generated proxy classes).  The first call
// that finds an implementation keeps it in c; a call that finds none
// keeps nothing, so a later registration is still seen.  The caller's env
// is passed through so the native runs inside the same execution (same
// depth budget, same held locks); its args are a view of the slab, valid
// until it returns.  A non-void method's result goes to env.slab[base],
// as a bytecode method's does, and a void method's is dropped: the
// caller's stack holds a result exactly when the method declares one.
// The result comes from outside verified code, so one that does not fit
// the declared return type is refused.
func (v *VM) callNative(env *Env, c *code, base int) (bool, *Thrown, error) {
	nb := c.native.Load()
	if nb == nil {
		var err error
		if nb, err = v.bindNative(c); err != nil {
			return false, nil, err
		}
	}
	var recv Value
	args := env.slab[base : base+c.nargs : base+c.nargs]
	if !c.m.Static {
		recv, args = args[0], args[1:]
	}
	var res Value
	var thrown *Thrown
	var err error
	if nb.exact != nil {
		res, thrown, err = nb.exact(env, recv, args)
	} else {
		res, thrown, err = nb.class(env, c.m.Name, recv, args)
	}
	if thrown != nil || err != nil || c.m.Return.IsVoid() {
		return false, thrown, err
	}
	if !res.Fits(c.m.Return) {
		return false, nil, &FaultError{Msg: fmt.Sprintf("native %s.%s returned %s, not %s",
			c.class.Name, c.m.Name, kindOf(&res), &c.m.Return)}
	}
	env.slab[base] = res
	return true, nil, nil
}

// bindNative looks c's implementation up in the native tables and keeps
// it in c.  It binds only a declaration the verifier accepts
// (verifier.CheckMethod), whose types agree with any method it
// overrides, and finds nothing to bind when the tables have no entry.
func (v *VM) bindNative(c *code) (*nativeBinding, error) {
	v.regMu.Lock()
	defer v.regMu.Unlock()
	if nb := c.native.Load(); nb != nil {
		return nb, nil
	}
	nb := &nativeBinding{exact: v.natives[nativeKey{c.class.Name, c.m.Name, len(c.m.Params)}]}
	if nb.exact == nil {
		if nb.class = v.classNatives[c.class.Name]; nb.class == nil {
			return nil, &FaultError{
				Msg: fmt.Sprintf("unbound native method %s.%s/%d", c.class.Name, c.m.Name, len(c.m.Params)),
			}
		}
	}
	if _, _, err := verifier.CheckMethod(v.prog, c.class, c.m); err != nil {
		return nil, &FaultError{Msg: "link: " + err.Error()}
	}
	c.native.Store(nb)
	return nb, nil
}

// registerSystemNatives binds the sys.* library implementations.  It runs
// during New, before the VM is visible to any other goroutine, so it may
// write the native table without the lock.
func registerSystemNatives(v *VM) {
	reg := func(owner, name string, arity int, f NativeFunc) {
		v.natives[nativeKey{owner, name, arity}] = f
	}

	// sys.Object
	reg(ir.ObjectClass, "toString", 0, func(env *Env, recv Value, _ []Value) (Value, *Thrown, error) {
		if recv.O == nil {
			return StringV("null"), nil, nil
		}
		return StringV("<" + recv.O.ClassName() + ">"), nil, nil
	})
	reg(ir.ObjectClass, "hashCode", 0, func(env *Env, recv Value, _ []Value) (Value, *Thrown, error) {
		if recv.O == nil {
			return IntV(0), nil, nil
		}
		// Stable content-free hash: identity is not portable, so hash the
		// class name; adequate for programs under test.
		var h int64
		for _, c := range recv.O.ClassName() {
			h = h*31 + int64(c)
		}
		return IntV(h), nil, nil
	})
	reg(ir.ObjectClass, "getClass", 0, func(env *Env, recv Value, _ []Value) (Value, *Thrown, error) {
		if recv.O == nil {
			return StringV("null"), nil, nil
		}
		return StringV(recv.O.ClassName()), nil, nil
	})

	// sys.System
	reg(ir.SystemClass, "println", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		fmt.Fprintln(env.vm.out, args[0].S)
		return Value{}, nil, nil
	})
	reg(ir.SystemClass, "print", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		fmt.Fprint(env.vm.out, args[0].S)
		return Value{}, nil, nil
	})
	reg(ir.SystemClass, "printInt", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		fmt.Fprintln(env.vm.out, args[0].I)
		return Value{}, nil, nil
	})

	// sys.Strings
	reg(stdlib.StringsClass, "length", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(int64(len(args[0].S))), nil, nil
	})
	reg(stdlib.StringsClass, "charAt", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		s, i := args[0].S, args[1].I
		if i < 0 || int(i) >= len(s) {
			return Value{}, env.Throw(stdlib.IndexBoundsClass, fmt.Sprintf("charAt %d of %q", i, s)), nil
		}
		return IntV(int64(s[i])), nil, nil
	})
	reg(stdlib.StringsClass, "substring", 3, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		s, lo, hi := args[0].S, args[1].I, args[2].I
		if lo < 0 || hi < lo || int(hi) > len(s) {
			return Value{}, env.Throw(stdlib.IndexBoundsClass,
				fmt.Sprintf("substring [%d,%d) of %q", lo, hi, s)), nil
		}
		return StringV(s[lo:hi]), nil, nil
	})
	reg(stdlib.StringsClass, "indexOf", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(int64(strings.Index(args[0].S, args[1].S))), nil, nil
	})
	reg(stdlib.StringsClass, "ofInt", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return StringV(strconv.FormatInt(args[0].I, 10)), nil, nil
	})
	reg(stdlib.StringsClass, "ofFloat", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return StringV(strconv.FormatFloat(args[0].F, 'g', -1, 64)), nil, nil
	})
	reg(stdlib.StringsClass, "ofBool", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return StringV(strconv.FormatBool(args[0].I != 0)), nil, nil
	})
	reg(stdlib.StringsClass, "parseInt", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		n, err := strconv.ParseInt(strings.TrimSpace(args[0].S), 10, 64)
		if err != nil {
			return Value{}, env.Throw(stdlib.RuntimeExceptionClass, "parseInt: "+args[0].S), nil
		}
		return IntV(n), nil, nil
	})
	reg(stdlib.StringsClass, "equals", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return BoolV(args[0].S == args[1].S), nil, nil
	})
	reg(stdlib.StringsClass, "repeat", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		n := args[1].I
		if n < 0 || n > 1<<20 {
			return Value{}, env.Throw(stdlib.IndexBoundsClass, fmt.Sprintf("repeat count %d", n)), nil
		}
		return StringV(strings.Repeat(args[0].S, int(n))), nil, nil
	})

	// sys.Math
	reg(ir.MathClass, "abs", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		n := args[0].I
		if n < 0 {
			n = -n
		}
		return IntV(n), nil, nil
	})
	reg(ir.MathClass, "min", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		if args[0].I < args[1].I {
			return args[0], nil, nil
		}
		return args[1], nil, nil
	})
	reg(ir.MathClass, "max", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		if args[0].I > args[1].I {
			return args[0], nil, nil
		}
		return args[1], nil, nil
	})
	reg(ir.MathClass, "sqrt", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return FloatV(math.Sqrt(args[0].F)), nil, nil
	})
	reg(ir.MathClass, "pow", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return FloatV(math.Pow(args[0].F, args[1].F)), nil, nil
	})
	reg(ir.MathClass, "floor", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(int64(math.Floor(args[0].F))), nil, nil
	})
	reg(ir.MathClass, "toFloat", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return FloatV(float64(args[0].I)), nil, nil
	})

	// sys.Random: splitmix64-style step, pure and deterministic.
	reg(stdlib.RandomClass, "next", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		return IntV(int64(splitmix(uint64(args[0].I)))), nil, nil
	})
	reg(stdlib.RandomClass, "value", 2, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		bound := args[1].I
		if bound <= 0 {
			return Value{}, env.Throw(stdlib.ArithmeticClass, "random bound must be positive"), nil
		}
		x := splitmix(uint64(args[0].I))
		return IntV(int64(x % uint64(bound))), nil, nil
	})

	// sys.Clock
	reg(stdlib.ClockClass, "nanos", 0, func(env *Env, _ Value, _ []Value) (Value, *Thrown, error) {
		return IntV(env.vm.clock().UnixNano()), nil, nil
	})
	reg(stdlib.ClockClass, "millis", 0, func(env *Env, _ Value, _ []Value) (Value, *Thrown, error) {
		return IntV(env.vm.clock().UnixNano() / 1e6), nil, nil
	})
	// sleepMicros blocks the calling execution WITHOUT releasing its
	// locks — it models program-level waiting (I/O, pacing, device time)
	// that happens between heap accesses and therefore cannot use
	// RunUnlocked.  Under sharded locking only the target object's gate
	// is held, so other objects keep executing; under the coarse-lock
	// regime the whole VM stalls.  Experiment E8 measures exactly this
	// difference.
	reg(stdlib.ClockClass, "sleepMicros", 1, func(env *Env, _ Value, args []Value) (Value, *Thrown, error) {
		if n := args[0].I; n > 0 {
			time.Sleep(time.Duration(n) * time.Microsecond)
		}
		return Value{}, nil, nil
	})
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
