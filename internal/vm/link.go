package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rafda/internal/ir"
	"rafda/internal/verifier"
)

// Linking resolves each name the interpreter meets — a method, a field, a
// class to instantiate, a type to test against — once, on first
// execution, and leaves the answer where the next execution finds it with
// a pointer compare.  Nothing is resolved before it runs: building a VM
// costs the same however large the program.
//
// A VM's program is fixed when it is built, so a record, once made, is
// right for the VM's lifetime: each class's link tables (classLink) hang
// off the VM, keyed by class, together with the class's runtime state —
// initialisation, the instance layout, the monitor that holds the static
// fields.  A native method binds on its first successful call and keeps
// that binding (see VM.callNative).

// link is one resolved reference.  Records are interned in the tables of
// the class (or layout) they were resolved for, so a site that alternates
// between receivers re-reads an existing record instead of allocating.
// Which fields are meaningful depends on the instruction that cached it.
type link struct {
	// class is what the record holds for: the receiver's class at an
	// invoke, the operand's class at a cast/instanceof/catch, the class to
	// instantiate at a new, the declaring class at a static access.
	class *ir.Class
	state *classState // class's runtime state (new, getstatic, putstatic)
	code  *code       // invoke*: the method to activate
	ok    bool        // cast, instanceof: class is assignable to the named type
	sub   bool        // catch, throw: class is the named class or extends it

	// Field and static sites: objects with this layout — a static site's
	// class monitor once its slots exist — keep the field in slot, which
	// holds values of kind and is declared of type typ.  A field site
	// holds a record of its field's type alone until it first finds the
	// field (see VM.linkBody).
	layout *layout
	slot   int
	kind   ir.Kind
	typ    *ir.Type
}

type methodKey struct {
	name  string
	nargs int
}

// classLink is one class's link tables and runtime state.
type classLink struct {
	class *ir.Class
	state classState
	codes map[*ir.Method]*code // declared methods; immutable
	self  link                 // {class, state}: what new and not yet resolved static sites cache

	mu      sync.Mutex                          // serialises table writers
	methods atomic.Pointer[map[methodKey]*link] // by-name method table, filled per lookup
	kinds   atomic.Pointer[map[string]*link]    // assignability verdicts by type name
}

// code is the link record of one declared method: what an activation
// needs that the ir.Method does not say.
type code struct {
	class *ir.Class // declaring class
	m     *ir.Method
	state *classState
	nargs int // receiver + parameters: the slots the caller fills

	// accessor marks a trivial getter or setter, which an invoke site
	// runs without an activation (see VM.accessorAt).
	accessor accessorKind

	native atomic.Pointer[nativeBinding] // native methods, see callNative
	body   atomic.Pointer[body]          // bytecode methods, verified and built on first activation
}

// body is a verified bytecode method's frame shape and per-instruction
// caches, or the verifier's refusal of its code.
type body struct {
	refused *FaultError // "link: <the verifier's message>"; nothing else is set
	nlocals int         // arguments, then every slot a load/store names
	size    int         // nlocals + deepest operand stack
	sites   []atomic.Pointer[link]
}

// put interns v under k in a copy-on-write table; the first record
// stored for a key wins.
func put[K comparable](cl *classLink, at *atomic.Pointer[map[K]*link], k K, v *link) *link {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var cur map[K]*link
	if m := at.Load(); m != nil {
		cur = *m
	}
	if first := cur[k]; first != nil {
		return first
	}
	next := make(map[K]*link, len(cur)+1)
	for ck, cv := range cur {
		next[ck] = cv
	}
	next[k] = v
	at.Store(&next)
	return v
}

func get[K comparable](at *atomic.Pointer[map[K]*link], k K) *link {
	if m := at.Load(); m != nil {
		return (*m)[k]
	}
	return nil
}

// classLink returns c's link tables, creating them on first use.
func (v *VM) classLink(c *ir.Class) *classLink {
	if cl, ok := v.classes.Load(c); ok {
		return cl.(*classLink)
	}
	cl := &classLink{class: c, codes: make(map[*ir.Method]*code, len(c.Methods))}
	cl.self = link{class: c, state: &cl.state}
	cl.state.monitor.class.Store(c)
	cl.state.monitor.cur.Store(&unset)
	for _, m := range c.Methods {
		nargs := len(m.Params)
		if !m.Static {
			nargs++
		}
		cl.codes[m] = &code{class: c, m: m, state: &cl.state, nargs: nargs, accessor: accessorOf(m)}
	}
	actual, _ := v.classes.LoadOrStore(c, cl)
	return actual.(*classLink)
}

// accessorKind classifies a method as a trivial field accessor.
type accessorKind uint8

const (
	notAccessor accessorKind = iota
	getter                   // load 0; getfield f; return.v
	setter                   // load 0; load 1; putfield f; return
)

// accessorOf recognises the bodies property-isation generates for every
// field, and hand-written Java-style accessors of the same shape: an
// instance method that only reads or only writes one field of its
// receiver.  Code after the return never runs (a compiler's guard against
// falling off the end), so it does not matter.
func accessorOf(m *ir.Method) accessorKind {
	if m.Static || m.Native || m.Abstract || len(m.Handlers) != 0 {
		return notAccessor
	}
	code := m.Code
	switch {
	case len(m.Params) == 0 && len(code) >= 3 &&
		code[0].Op == ir.OpLoad && code[0].A == 0 &&
		code[1].Op == ir.OpGetField &&
		code[2].Op == ir.OpReturnValue:
		return getter
	case len(m.Params) == 1 && len(code) >= 4 &&
		code[0].Op == ir.OpLoad && code[0].A == 0 &&
		code[1].Op == ir.OpLoad && code[1].A == 1 &&
		code[2].Op == ir.OpPutField &&
		code[3].Op == ir.OpReturn:
		return setter
	}
	return notAccessor
}

// resolve finds the method name/nargs for receiver class c: its by-name
// method table first, the program's resolution order on a miss.
func (v *VM) resolve(c *ir.Class, name string, nargs int) (*link, error) {
	cl := v.classLink(c)
	k := methodKey{name, nargs}
	if t := get(&cl.methods, k); t != nil {
		return t, nil
	}
	dc, m, err := v.prog.ResolveMethod(c.Name, name, nargs)
	if err != nil {
		return nil, err
	}
	return put(cl, &cl.methods, k, &link{class: c, code: v.classLink(dc).codes[m]}), nil
}

// dispatch is resolve for an invokevirtual or invokeinterface of
// owner.name/nargs on a receiver of class c.  The verifier checked the
// calling code against owner's method, and refuses an override whose
// types differ from the method it overrides, so on a receiver of a
// subclass of owner the two agree.  The verifier tracks kinds, not
// classes, though: a receiver of an unrelated class can have a method of
// that name with other types, and it is refused.
func (v *VM) dispatch(c *ir.Class, owner, name string, nargs int) (*link, error) {
	lk, err := v.resolve(c, name, nargs)
	if err != nil {
		return nil, err
	}
	declared, _ := v.lookup(owner, name, nargs) // the verifier resolved it
	if m, d := lk.code.m, declared.code.m; m != d && !m.SameTypes(d) {
		return nil, fmt.Errorf("dispatch of %s.%s to %s.%s, which has other types",
			owner, d.Signature(), lk.code.class.Name, m.Signature())
	}
	return lk, nil
}

// lookup is resolve for the by-name entry points.
func (v *VM) lookup(class, method string, nargs int) (*link, error) {
	cl := v.linked(class)
	if cl == nil {
		_, _, err := v.prog.ResolveMethod(class, method, nargs)
		return nil, err
	}
	return v.resolve(cl.class, method, nargs)
}

// ClassRef is a class of a VM's program resolved by name once, for a host
// that instantiates it over and over — a factory's make (Env.ConstructRef):
// the link tables are one atomic load away, where a by-name entry point
// looks the name up in the program on every call.
type ClassRef struct {
	v    *VM
	name string
	c    *ir.Class                 // nil when the program has no such class
	cl   atomic.Pointer[classLink] // c's link tables, once first used
}

// ClassRef resolves the named class of v's program.  A name the program
// lacks makes a reference whose every use faults, as a by-name use does.
func (v *VM) ClassRef(name string) *ClassRef {
	return &ClassRef{v: v, name: name, c: v.prog.Class(name)}
}

// link returns r's link tables, nil when r names no class.
func (r *ClassRef) link() *classLink {
	if cl := r.cl.Load(); cl != nil || r.c == nil {
		return cl
	}
	cl := r.v.classLink(r.c)
	r.cl.Store(cl)
	return cl
}

// linked returns the named class's link tables (nil when the program has
// no such class).
func (v *VM) linked(class string) *classLink {
	if c := v.prog.Class(class); c != nil {
		return v.classLink(c)
	}
	return nil
}

// kind answers whether class c is assignable to (ok) and a subclass of
// (sub) the named type, from c's verdict table.
func (v *VM) kind(c *ir.Class, name string) *link {
	cl := v.classLink(c)
	if k := get(&cl.kinds, name); k != nil {
		return k
	}
	return put(cl, &cl.kinds, name, &link{
		class: c,
		ok:    v.prog.AssignableTo(c.Name, name),
		sub:   v.prog.IsSubclassOf(c.Name, name),
	})
}

// linkBody verifies c's code (verifier.CheckMethod), then sizes its
// frame from the verified walk and allocates its site caches, each field
// site's holding the type of the field the verifier resolved (see
// slots.resite).  Code the verifier refuses is linked as refused: every
// activation of it faults with the verifier's message, and it is not
// verified again.  Concurrent first links each verify; the first body
// stored wins.
func (v *VM) linkBody(c *code) *body {
	b := &body{nlocals: c.nargs}
	if deepest, fields, err := verifier.CheckMethod(v.prog, c.class, c.m); err != nil {
		b.refused = &FaultError{Msg: "link: " + err.Error()}
	} else {
		code := c.m.Code
		b.sites = make([]atomic.Pointer[link], len(code))
		for i := range code {
			switch in := &code[i]; in.Op {
			case ir.OpLoad, ir.OpStore:
				b.nlocals = max(b.nlocals, int(in.A)+1)
			case ir.OpGetField, ir.OpPutField:
				b.sites[i].Store(&link{typ: fields[i]})
			}
		}
		b.size = b.nlocals + deepest
	}
	if !c.body.CompareAndSwap(nil, b) {
		b = c.body.Load()
	}
	return b
}
