package verifier

import (
	"strings"

	"rafda/internal/ir"
)

// Effects is a whole-program method-effect classification: for every
// (class, method) it answers "can executing this method mutate any
// state that existed before the call?".  The runtime's replication
// plane uses it to split proxy invocations into reads — routable to
// any live replica — and writes, which must serialise through the
// lease-holding primary (docs/REPLICATION.md).  The analysis is
// conservative: a method classifies read-only only when that is
// provable from the IR, so misclassification can cost read-scaling but
// never correctness.
//
// A method is a writer when any of these hold, transitively through
// the call graph:
//
//   - its body stores into state that may predate the call: OpPutField,
//     OpAStore or OpPutStatic whose target object is not provably
//     freshly allocated.  A small abstract-stack simulation tracks
//     freshness (OpNew/OpNewArray push fresh values, OpDup preserves
//     them), which is what keeps the compiler's missing-return
//     epilogue — new sys.RuntimeException; <init>; throw — from
//     tainting every value-returning method;
//   - it is native (semantics unknown to the IR — the generated proxy
//     and factory classes land here, as does anything the runtime
//     registers by hand);
//   - it calls a writer.  Static and special invokes resolve to one
//     target; virtual and interface invokes taint through every
//     concrete declaration of the method key anywhere in the program.
//
// Constructors are classified by the same rules with one refinement:
// stores into their own receiver (`this`) don't count, because every
// reachable constructor call in the IR initialises either a freshly
// allocated object or the receiver another constructor is already
// initialising.  A constructor that writes statics or foreign objects
// is a writer like any other method.
//
// The classification is computed once over the immutable post-boot
// program (CONCURRENCY.md §3) and read lock-free afterwards.
type Effects struct {
	writer map[string]bool // effectKey -> mutates pre-existing state
}

func effectKey(class, methodKey string) string {
	return class + "\x00" + methodKey
}

// unknownTarget is the sentinel callee for invokes the resolver cannot
// name; it is pre-marked writer so calling into the unknown is never
// proven pure.
const unknownTarget = "\x00unknown"

// absVal abstracts one operand-stack slot for the freshness simulation.
type absVal uint8

const (
	avOther absVal = iota // anything that may alias pre-existing state
	avFresh               // allocated inside this method, not yet escaped
	avSelf                // the receiver (local slot 0 of an instance method)
)

// AnalyzeEffects classifies every concrete method in p.  Native methods
// are writers; use AnalyzeEffectsAliased to classify programs containing
// generated forwarding classes.
func AnalyzeEffects(p *ir.Program) *Effects {
	return AnalyzeEffectsAliased(p, nil)
}

// AnalyzeEffectsAliased classifies every concrete method in p, with an
// optional alias hook for forwarding classes: when alias(class) returns
// a twin class, each native method of class is given the effects of the
// same method key on the twin instead of the blanket writer rule.  The
// transformed programs the runtime executes need this for their proxy
// families — a proxy's native method forwards the invocation to the
// remote A_O_Local twin, so its effect on the target object's state is
// exactly the twin method's; without the alias every interface call
// site would taint through the proxy implementations and nothing in a
// transformed program could classify read-only.
func AnalyzeEffectsAliased(p *ir.Program, alias func(class string) (twin string, ok bool)) *Effects {
	e := &Effects{writer: make(map[string]bool)}
	e.writer[unknownTarget] = true
	// calls[m] lists the method keys m invokes (resolved targets for
	// exact dispatch, every concrete declaration for dynamic dispatch);
	// a caller is tainted by any tainted callee.
	calls := make(map[string][]string)
	overrides := overrideTable(p)

	for _, c := range p.Classes() {
		var twin string
		if alias != nil {
			twin, _ = alias(c.Name)
		}
		for _, m := range c.Methods {
			key := effectKey(c.Name, m.Key())
			switch {
			case m.Native && twin != "":
				e.writer[key] = false
				calls[key] = []string{effectKey(twin, m.Key())}
				continue
			case m.Native:
				e.writer[key] = true
				continue
			case m.Abstract:
				// No body of its own; dynamic dispatch reaches the
				// overrides directly, so the declaration is neutral.
				continue
			}
			writes, callees := scanMethod(p, m, overrides)
			e.writer[key] = writes
			if !writes {
				calls[key] = callees
			}
		}
	}

	// Fixpoint: taint along call edges until stable.  The call graph is
	// small (one transformed program), so the quadratic worst case is
	// irrelevant next to clarity.
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if e.writer[caller] {
				continue
			}
			for _, callee := range callees {
				// A callee the analysis never saw (e.g. an alias edge to
				// a method the twin doesn't declare) is a writer.
				if w, ok := e.writer[callee]; ok && !w {
					continue
				}
				e.writer[caller] = true
				changed = true
				break
			}
		}
	}
	return e
}

// scanMethod walks one body under the freshness simulation, returning
// whether it directly mutates pre-existing state and which methods it
// calls.  The simulation is linear and resets to an empty abstract
// stack at every join point (jump target, exception handler entry,
// post-terminator), where popping an empty stack conservatively yields
// avOther — so control-flow merges can only lose freshness, never
// invent it.
func scanMethod(p *ir.Program, m *ir.Method, overrides map[string][]string) (writes bool, callees []string) {
	joins := make(map[int]bool)
	for _, in := range m.Code {
		if in.IsJump() {
			joins[int(in.A)] = true
		}
	}
	for _, h := range m.Handlers {
		joins[h.Target] = true
	}
	inCtor := m.IsConstructor()

	var stack []absVal
	pop := func() absVal {
		if len(stack) == 0 {
			return avOther
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	push := func(v absVal) { stack = append(stack, v) }

	for pc := range m.Code {
		in := &m.Code[pc]
		if joins[pc] {
			stack = stack[:0]
		}
		if in.Op == ir.OpSwap {
			a, b := pop(), pop()
			push(a)
			push(b)
			continue
		}
		// The deepest operand an instruction pops is the one freshness
		// turns on: the receiver of a field store or invoke, the array
		// of an element store, the value a dup copies.
		pops, pushes := p.StackEffect(in)
		deepest := avOther
		for range pops {
			deepest = pop()
		}
		result := avOther
		switch in.Op {
		case ir.OpLoad:
			if in.A == 0 && !m.Static {
				result = avSelf
			}
		case ir.OpDup:
			result = deepest
		case ir.OpNew, ir.OpNewArray:
			result = avFresh
		case ir.OpPutField:
			// Initialising an object this method just allocated, or a
			// constructor initialising its own receiver, mutates nothing
			// that existed before the call.
			if deepest != avFresh && !(deepest == avSelf && inCtor) {
				writes = true
			}
		case ir.OpPutStatic:
			writes = true
		case ir.OpAStore:
			if deepest != avFresh {
				writes = true
			}
		case ir.OpInvokeStatic:
			callees = append(callees, resolveExact(p, in))
		case ir.OpInvokeSpecial:
			// Constructing a fresh object (or chaining to super from
			// inside a constructor) confines the callee's self-writes to
			// an object that didn't exist before this call; the callee's
			// classification still propagates any writes beyond its own
			// receiver.  Any other receiver shape would re-initialise
			// pre-existing state: writer.
			if in.Member == ir.ConstructorName && deepest != avFresh && !(deepest == avSelf && inCtor) {
				writes = true
			}
			callees = append(callees, resolveExact(p, in))
		case ir.OpInvokeVirtual, ir.OpInvokeInterface:
			callees = append(callees, overrides[ir.MethodKey(in.Member, in.NArgs)]...)
		case ir.OpJump, ir.OpJumpIf, ir.OpJumpIfNot, ir.OpReturn, ir.OpReturnValue, ir.OpThrow:
			stack = stack[:0]
		}
		for range pushes {
			push(result)
		}
	}
	return writes, callees
}

// resolveExact names the single target of a static/special invoke,
// walking the super chain the way the VM's exact dispatch does.
func resolveExact(p *ir.Program, in *ir.Instr) string {
	cls, m, err := p.ResolveMethod(in.Owner, in.Member, in.NArgs)
	if err != nil || cls == nil || m == nil {
		return unknownTarget
	}
	return effectKey(cls.Name, m.Key())
}

// overrideTable maps each method key to every concrete declaration of it
// anywhere in the program.  Dynamic dispatch on a receiver of declared
// type T can, after subtyping, land on any of them; distinguishing by
// assignability to the call site's Owner would prune very little in the
// transformed programs this runs on (every A_O_Local implements its
// interface) and costs a per-site subtype walk, so the table is shared.
func overrideTable(p *ir.Program) map[string][]string {
	t := make(map[string][]string)
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if m.Abstract || m.IsConstructor() || m.IsStaticInit() {
				continue
			}
			mk := m.Key()
			t[mk] = append(t[mk], effectKey(c.Name, mk))
		}
	}
	return t
}

// ReadOnly reports whether method (name/nargs key) on class is provably
// free of writes to pre-existing state.  Unknown methods are writers;
// constructor and static-initialiser keys always report writer — they
// exist to write, and the replication plane never routes them.
func (e *Effects) ReadOnly(class, methodKey string) bool {
	if e == nil {
		return false
	}
	if strings.HasPrefix(methodKey, ir.ConstructorName+"/") ||
		strings.HasPrefix(methodKey, ir.StaticInitName+"/") {
		return false
	}
	key := effectKey(class, methodKey)
	if w, ok := e.writer[key]; ok {
		return !w
	}
	// Not analysed (e.g. a runtime-registered native): writer.
	return false
}

// ReadOnlyCount reports how many analysed methods of class are
// read-only, for diagnostics and tests.
func (e *Effects) ReadOnlyCount(class string) (readOnly, total int) {
	prefix := class + "\x00"
	for key, w := range e.writer {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		total++
		if !w {
			readOnly++
		}
	}
	return readOnly, total
}
