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
// transform.Result.ReadOnly solves it once per program, on the first
// query (CONCURRENCY.md §3); it is read lock-free afterwards.
type Effects struct {
	writer map[string]bool // effectKey -> mutates pre-existing state
}

func effectKey(class, methodKey string) string {
	return class + "\x00" + methodKey
}

// dispatchKey names the graph node that virtual and interface call
// sites of methodKey call and that calls every concrete declaration of
// it.  No class name is empty, so it never collides with an effectKey.
func dispatchKey(methodKey string) string { return "\x00" + methodKey }

func isDispatchKey(node string) bool { return strings.HasPrefix(node, "\x00") }

// unknownTarget is the callee of an invoke the resolver cannot name.
// Like every callee the analysis never saw, it is a writer.
const unknownTarget = "unknown"

// absVal abstracts one operand-stack slot for the freshness simulation.
type absVal uint8

const (
	avOther absVal = iota // anything that may alias pre-existing state
	avFresh               // allocated inside this method, not yet escaped
	avSelf                // the receiver (local slot 0 of an instance method)
)

// AnalyzeEffects classifies every concrete method in p.  alias, which
// may be nil, names a forwarding class's twin ("" for none): the
// class's native methods take the verdicts of the same method keys on
// the twin instead of the blanket writer rule.  Transformed programs
// need this for their proxies: a proxy's native forwards to the remote
// A_O_Local twin, so its effect on the target's state is the twin
// method's, and without the alias no interface call site in a
// transformed program could classify read-only.
//
// The call graph has one node per method and one per dispatch key: a
// static or special invoke is an edge to its resolved target, a virtual
// or interface invoke an edge to its key, and a key has an edge to
// every concrete declaration of it.  Taint starts at every writer and
// every callee the analysis never saw (an unresolved invoke, an alias
// edge to a method the twin does not declare), and one worklist carries
// it back along reverse edges, walking each edge once.
func AnalyzeEffects(p *ir.Program, alias func(c *ir.Class) (twin string)) *Effects {
	e := &Effects{writer: make(map[string]bool)}
	// callers[n] lists the graph nodes with an edge to n.
	callers := make(map[string][]string)
	for _, c := range p.Classes() {
		var twin string
		if alias != nil {
			twin = alias(c)
		}
		for _, m := range c.Methods {
			if m.Abstract {
				// No body of its own; dynamic dispatch reaches the
				// overrides directly, so the declaration is neutral.
				continue
			}
			mk := m.Key()
			key := effectKey(c.Name, mk)
			if !m.IsConstructor() && !m.IsStaticInit() {
				callers[key] = append(callers[key], dispatchKey(mk))
			}
			var writes bool
			var callees []string
			switch {
			case m.Native && twin != "":
				callees = []string{effectKey(twin, mk)}
			case m.Native:
				writes = true
			default:
				writes, callees = scanMethod(p, m)
			}
			e.writer[key] = writes
			for _, callee := range callees {
				callers[callee] = append(callers[callee], key)
			}
		}
	}

	var work []string
	for n := range callers {
		if w, analysed := e.writer[n]; w || (!analysed && !isDispatchKey(n)) {
			work = append(work, n)
		}
	}
	taintedKeys := make(map[string]bool)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[n] {
			tainted := e.writer
			if isDispatchKey(c) {
				tainted = taintedKeys
			}
			if !tainted[c] {
				tainted[c] = true
				work = append(work, c)
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
func scanMethod(p *ir.Program, m *ir.Method) (writes bool, callees []string) {
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
			callees = append(callees, dispatchKey(ir.MethodKey(in.Member, in.NArgs)))
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
	cls, m := p.LookupMethod(in.Owner, in.Member, in.NArgs)
	if m == nil {
		return unknownTarget
	}
	return effectKey(cls.Name, m.Key())
}

// ReadOnly reports whether method (name/nargs key) on class is provably
// free of writes to pre-existing state.  Unknown methods are writers;
// constructor and static-initialiser keys always report writer — they
// exist to write, and the replication plane never routes them.
func (e *Effects) ReadOnly(class, methodKey string) bool {
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
