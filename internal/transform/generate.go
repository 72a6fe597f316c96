package transform

import "rafda/internal/ir"

// transformer carries the read-only state shared while generating one
// program: the source classes, the name table and, once the first pass
// has run, every family's classes with its _O_Int built.  Its methods
// only read it, so families for different classes build concurrently.
type transformer struct {
	*nameTable
	classes []*ir.Class // the source program's, in program order
	// built holds each transformable class's generated classes by slot
	// (nil for a class that is not transformable); the first pass builds
	// slot 0, its _O_Int.
	built [][]ir.Class
}

// shape counts the members of a class that its family is built from, so
// that each family is carved from arrays of exactly its size.
type shape struct {
	instFields, staticFields   int
	instMethods, staticMethods int
	instParams, staticParams   int
	ctors, ctorParams          int
	staticInit                 *ir.Method
}

func shapeOf(c *ir.Class) shape {
	s := shape{staticInit: c.StaticInit()}
	for range c.InstanceFields() {
		s.instFields++
	}
	for range c.StaticFields() {
		s.staticFields++
	}
	for m := range c.InstanceMethods() {
		s.instMethods++
		s.instParams += len(m.Params)
	}
	for m := range c.StaticMethods() {
		s.staticMethods++
		s.staticParams += len(m.Params)
	}
	for m := range c.Constructors() {
		s.ctors++
		s.ctorParams += len(m.Params)
	}
	return s
}

// slabs are one builder's backing arrays, each sized for what it builds.
// Every slice a built class holds is carved from them sealed (ir.Carve),
// so an append to one never writes into its neighbour.
type slabs struct {
	methods []ir.Method
	lists   []*ir.Method
	fields  []ir.Field
	types   []ir.Type
	strs    []string
	code    []ir.Instr
}

// method places m in the methods slab.
func (s *slabs) method(m ir.Method) *ir.Method {
	p := &ir.Carve(&s.methods, 1)[0]
	*p = m
	return p
}

// list carves an empty method list with room for n.
func (s *slabs) list(n int) []*ir.Method { return ir.Carve(&s.lists, n)[:0] }

// body carves a copy of instrs.
func (s *slabs) body(instrs ...ir.Instr) []ir.Instr {
	b := ir.Carve(&s.code, len(instrs))
	copy(b, instrs)
	return b
}

// one carves a one-element slice holding v.
func one[E any](slab *[]E, v E) []E {
	s := ir.Carve(slab, 1)
	s[0] = v
	return s
}

// makeOInt extracts the instance interface A_O_Int (§2.1) into slot 0
// of the family's classes.  When the superclass is transformable the
// interface extends the superclass's, so interface-typed references are
// substitutable along the hierarchy.  The rest of the family takes its
// signatures from it, and the proxies of subclasses their members.
func (t *transformer) makeOInt(c *ir.Class, n *familyNames) {
	sh := shapeOf(c)
	nMethods := 2*sh.instFields + sh.instMethods
	s := slabs{
		methods: make([]ir.Method, nMethods),
		lists:   make([]*ir.Method, nMethods),
		types:   make([]ir.Type, sh.instFields+sh.instParams),
	}
	fam := make([]ir.Class, familySize)
	t.built[n.index] = fam
	oint := &fam[slotOInt]
	*oint = ir.Class{
		Name:        n.name[slotOInt],
		IsInterface: true,
		Abstract:    true,
		Meta:        n.meta[slotOInt],
		Methods:     s.list(nMethods),
	}
	if sup := t.of(c.Super); sup != nil {
		oint.Interfaces = []string{sup.name[slotOInt]}
	}
	for f := range c.InstanceFields() {
		oint.Methods = t.propertyPair(&s, oint.Methods, f)
	}
	for m := range c.InstanceMethods() {
		oint.Methods = append(oint.Methods, t.abstractSig(&s, m))
	}
}

// propertyPair appends the abstract get_/set_ declarations for one field.
func (t *transformer) propertyPair(s *slabs, list []*ir.Method, f ir.Field) []*ir.Method {
	ft := t.mapType(f.Type)
	return append(list,
		s.method(ir.Method{
			Name: t.getter(f.Name), Return: ft,
			Abstract: true, Access: ir.AccessPublic,
		}),
		s.method(ir.Method{
			Name: t.setter(f.Name), Params: one(&s.types, ft), Return: ir.Void,
			Abstract: true, Access: ir.AccessPublic,
		}))
}

// abstractSig builds the abstract interface declaration for a method,
// with mapped signature and public access (§2.1: all members become
// public since interfaces expose them).
func (t *transformer) abstractSig(s *slabs, m *ir.Method) *ir.Method {
	params := ir.Carve(&s.types, len(m.Params))
	t.mapTypes(params, m.Params)
	return s.method(ir.Method{
		Name:     m.Name,
		Params:   params,
		Return:   t.mapType(m.Return),
		Abstract: true,
		Access:   ir.AccessPublic,
	})
}

// family builds the rest of one transformable class's family around the
// _O_Int the first pass built: _O_Local, _C_Int, _C_Local, _O_Factory,
// _C_Factory, _O_Proxy and _C_Proxy.  It stores them in out, in slot
// order.
func (t *transformer) family(sc *scratch, c *ir.Class, n *familyNames, out []*ir.Class) error {
	fam := t.built[n.index]
	oint := &fam[slotOInt]
	flat := t.flatOMembers(sc, c)
	sh := shapeOf(c)
	cMembers := 2*sh.staticFields + sh.staticMethods
	nMethods := 1 + len(oint.Methods) + // _O_Local
		cMembers + // _C_Int
		3 + cMembers + // _C_Local
		1 + sh.ctors + // _O_Factory
		2 + cMembers + // _C_Factory
		1 + len(flat) + // _O_Proxy
		1 + cMembers // _C_Proxy
	clinitBody := 0
	if sh.staticInit == nil {
		clinitBody = 1
	}
	s := slabs{
		methods: make([]ir.Method, nMethods),
		lists:   make([]*ir.Method, nMethods),
		fields:  make([]ir.Field, sh.instFields+1+sh.staticFields+2*len(proxyFields)),
		types:   make([]ir.Type, sh.staticFields+sh.staticParams+sh.ctors+sh.ctorParams+1),
		strs:    make([]string, 4),
		code: make([]ir.Instr, 3+7*sh.instFields+ // _O_Local
			12+7*sh.staticFields+ // _C_Local
			clinitBody+7*sh.staticFields+3*sh.staticMethods+sh.staticParams+ // _C_Factory
			2*len(objectCtorBody)), // the proxies
	}
	rw := &sc.rw
	if err := t.makeOLocal(&s, rw, c, n, sh.instFields, oint, &fam[slotOLocal]); err != nil {
		return err
	}
	cint := &fam[slotCInt]
	t.makeCInt(&s, c, n, cMembers, cint)
	if err := t.makeCLocal(&s, rw, c, n, sh.staticFields, cint, &fam[slotCLocal]); err != nil {
		return err
	}
	if err := t.makeOFactory(&s, rw, c, n, sh.ctors, &fam[slotOFactory]); err != nil {
		return err
	}
	if err := t.makeCFactory(&s, rw, c, n, cint, sh.staticInit, &fam[slotCFactory]); err != nil {
		return err
	}
	t.makeProxy(&s, n, slotOProxy, slotOInt, flat, &fam[slotOProxy])
	t.makeProxy(&s, n, slotCProxy, slotCInt, cint.Methods, &fam[slotCProxy])
	for i := range fam {
		out[i] = &fam[i]
	}
	return nil
}

// makeOLocal generates the non-remote implementation A_O_Local (§2.1):
// fields become private properties, the default constructor is added,
// and method bodies are rewritten to use only interface types.
func (t *transformer) makeOLocal(s *slabs, rw *ir.Rewriter, c *ir.Class, n *familyNames, instFields int, oint, ol *ir.Class) error {
	name := n.name[slotOLocal]
	super := ir.ObjectClass
	if sup := t.of(c.Super); sup != nil {
		super = sup.name[slotOLocal]
	}
	*ol = ir.Class{
		Name:       name,
		Super:      super,
		Interfaces: one(&s.strs, n.name[slotOInt]),
		Abstract:   c.Abstract,
		Meta:       n.meta[slotOLocal],
		Methods:    s.list(1 + len(oint.Methods)),
	}
	// Default parameter-less constructor: chains to the super default
	// constructor; all original constructor functionality lives in the
	// factories.
	ol.Methods = append(ol.Methods, s.method(ir.Method{
		Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic,
		MaxLocals: 1,
		Code: s.body(
			ir.Instr{Op: ir.OpLoad, A: 0},
			ir.Instr{Op: ir.OpInvokeSpecial, Owner: super, Member: ir.ConstructorName},
			ir.Instr{Op: ir.OpReturn}),
	}))
	// _O_Int declares a get_/set_ pair per instance field, then each
	// instance method: the signatures here are its.
	sigs := oint.Methods
	ol.Fields = ir.Carve(&s.fields, instFields)[:0]
	for f := range c.InstanceFields() {
		get, set := sigs[0], sigs[1]
		sigs = sigs[2:]
		ol.Fields = append(ol.Fields, ir.Field{Name: f.Name, Type: get.Return, Access: ir.AccessPrivate})
		pair := s.accessors(name, f.Name, get, set)
		ol.Methods = append(ol.Methods, pair[:]...)
	}
	for m := range c.InstanceMethods() {
		sig := sigs[0]
		sigs = sigs[1:]
		nm := s.method(ir.Method{
			Name:     m.Name,
			Params:   sig.Params,
			Return:   sig.Return,
			Abstract: m.Abstract,
			Access:   ir.AccessPublic,
		})
		if !m.Abstract {
			code, handlers, err := t.rewriteCode(rw, codeCtx{ownClass: c.Name}, m.Code, m.Handlers)
			if err != nil {
				return err
			}
			nm.Code = code
			nm.Handlers = handlers
			nm.MaxLocals = m.MaxLocals
		}
		ol.Methods = append(ol.Methods, nm)
	}
	return nil
}

// accessors builds the concrete get_/set_ pair over field of class
// owner, with the signatures of the interface's get and set.
func (s *slabs) accessors(owner, field string, get, set *ir.Method) [2]*ir.Method {
	return [2]*ir.Method{
		s.method(ir.Method{
			Name: get.Name, Return: get.Return, Access: ir.AccessPublic, MaxLocals: 1,
			Code: s.body(
				ir.Instr{Op: ir.OpLoad, A: 0},
				ir.Instr{Op: ir.OpGetField, Owner: owner, Member: field},
				ir.Instr{Op: ir.OpReturnValue}),
		}),
		s.method(ir.Method{
			Name: set.Name, Params: set.Params, Return: ir.Void,
			Access: ir.AccessPublic, MaxLocals: 2,
			Code: s.body(
				ir.Instr{Op: ir.OpLoad, A: 0},
				ir.Instr{Op: ir.OpLoad, A: 1},
				ir.Instr{Op: ir.OpPutField, Owner: owner, Member: field},
				ir.Instr{Op: ir.OpReturn}),
		}),
	}
}

// scratch is one worker's working memory, kept from family to family:
// the body rewriter and the buffers flatOMembers fills.
type scratch struct {
	rw   ir.Rewriter
	flat []*ir.Method
	seen map[memberKey]bool
}

// memberKey identifies a member by name and arity.
type memberKey struct {
	name  string
	nargs int
}

// flatOMembers collects the full member set visible through A_O_Int
// (its own and every transformable ancestor's, each from the _O_Int the
// first pass built), most-derived first, one per name and arity.  Proxy
// classes must implement all of them.  The list lives in sc until the
// next call.
func (t *transformer) flatOMembers(sc *scratch, c *ir.Class) []*ir.Method {
	if sc.seen == nil {
		sc.seen = make(map[memberKey]bool)
	}
	clear(sc.seen)
	sc.flat = sc.flat[:0]
	// A chain longer than the class count is a cyclic hierarchy.
	n := t.of(c.Name)
	for steps := 0; n != nil && steps < len(t.classes); steps++ {
		for _, m := range t.built[n.index][slotOInt].Methods {
			if k := (memberKey{m.Name, len(m.Params)}); !sc.seen[k] {
				sc.seen[k] = true
				sc.flat = append(sc.flat, m)
			}
		}
		n = t.of(t.classes[n.index].Super)
	}
	return sc.flat
}

// makeCInt extracts the class interface A_C_Int over static members
// (§2.2): statics are made non-static so interfaces can capture them.
func (t *transformer) makeCInt(s *slabs, c *ir.Class, n *familyNames, members int, ci *ir.Class) {
	*ci = ir.Class{
		Name:        n.name[slotCInt],
		IsInterface: true,
		Abstract:    true,
		Meta:        n.meta[slotCInt],
		Methods:     s.list(members),
	}
	for f := range c.StaticFields() {
		ci.Methods = t.propertyPair(s, ci.Methods, f)
	}
	for m := range c.StaticMethods() {
		ci.Methods = append(ci.Methods, t.abstractSig(s, m))
	}
}

// makeCLocal generates the singleton local statics implementation (§2.2:
// "the uniqueness semantics of the static members is guaranteed by
// requiring that all generated implementations be singletons").
func (t *transformer) makeCLocal(s *slabs, rw *ir.Rewriter, c *ir.Class, n *familyNames, staticFields int, cint, cl *ir.Class) error {
	name := n.name[slotCLocal]
	cintRef := ir.Ref(cint.Name)
	*cl = ir.Class{
		Name:       name,
		Super:      ir.ObjectClass,
		Interfaces: one(&s.strs, cint.Name),
		Meta:       n.meta[slotCLocal],
		Fields:     ir.Carve(&s.fields, 1+staticFields)[:0],
		Methods:    s.list(3 + len(cint.Methods)),
	}
	// Singleton declarations: private static C_Int me = new C_Local(),
	// then the class's rewritten initialiser, C_Factory.clinit(me), so
	// the original initialisation runs as this class's, with the VM's
	// run-once and wait rules; public static C_Int get_me().
	cl.Fields = append(cl.Fields, ir.Field{
		Name: SingletonField, Type: cintRef, Static: true, Access: ir.AccessPrivate,
	})
	cl.Methods = append(cl.Methods,
		s.method(ir.Method{
			Name: ir.StaticInitName, Return: ir.Void, Static: true, Access: ir.AccessPrivate,
			Code: s.body(
				ir.Instr{Op: ir.OpNew, Owner: name},
				ir.Instr{Op: ir.OpDup},
				ir.Instr{Op: ir.OpInvokeSpecial, Owner: name, Member: ir.ConstructorName},
				ir.Instr{Op: ir.OpPutStatic, Owner: name, Member: SingletonField},
				ir.Instr{Op: ir.OpGetStatic, Owner: name, Member: SingletonField},
				ir.Instr{Op: ir.OpInvokeStatic, Owner: n.name[slotCFactory], Member: ClinitMethod, NArgs: 1},
				ir.Instr{Op: ir.OpReturn}),
		}),
		s.method(ir.Method{
			Name: SingletonGet, Return: cintRef, Static: true, Access: ir.AccessPublic,
			Code: s.body(
				ir.Instr{Op: ir.OpGetStatic, Owner: name, Member: SingletonField},
				ir.Instr{Op: ir.OpReturnValue}),
		}),
		s.method(ir.Method{
			Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic,
			MaxLocals: 1,
			Code:      s.body(objectCtorBody[:]...),
		}))
	// _C_Int declares a get_/set_ pair per static field, then each
	// static method: the signatures here are its.
	sigs := cint.Methods
	for f := range c.StaticFields() {
		get, set := sigs[0], sigs[1]
		sigs = sigs[2:]
		cl.Fields = append(cl.Fields, ir.Field{Name: f.Name, Type: get.Return, Access: ir.AccessPrivate})
		pair := s.accessors(name, f.Name, get, set)
		cl.Methods = append(cl.Methods, pair[:]...)
	}
	// Original static methods become instance methods (slot shift +1);
	// own-class static accesses go through `this` as in Figure 4.
	for m := range c.StaticMethods() {
		sig := sigs[0]
		sigs = sigs[1:]
		code, handlers, err := t.rewriteCode(rw, codeCtx{
			ownClass: c.Name, slotShift: 1, ownStaticsViaLocal0: true,
		}, m.Code, m.Handlers)
		if err != nil {
			return err
		}
		cl.Methods = append(cl.Methods, s.method(ir.Method{
			Name:      m.Name,
			Params:    sig.Params,
			Return:    sig.Return,
			Access:    ir.AccessPublic,
			Code:      code,
			Handlers:  handlers,
			MaxLocals: m.MaxLocals + 1,
		}))
	}
	return nil
}

// proxyFields are the bookkeeping fields of every generated proxy.
var proxyFields = [...]ir.Field{
	{Name: ProxyFieldGUID, Type: ir.String, Access: ir.AccessPrivate},
	{Name: ProxyFieldEndpoint, Type: ir.String, Access: ir.AccessPrivate},
}

// objectCtorBody is the body of a constructor that chains to sys.Object's
// (a proxy's, a _C_Local's).
var objectCtorBody = [...]ir.Instr{
	{Op: ir.OpLoad, A: 0},
	{Op: ir.OpInvokeSpecial, Owner: ir.ObjectClass, Member: ir.ConstructorName},
	{Op: ir.OpReturn},
}

// makeProxy generates the proxy in slot, A_O_Proxy over the _O_Int's
// flattened members or A_C_Proxy over the _C_Int's (the interface in
// slot iface): every interface member is a native method bound by the
// node runtime to a remote invocation over the transport its endpoint
// names.
func (t *transformer) makeProxy(s *slabs, n *familyNames, slot, iface int, members []*ir.Method, p *ir.Class) {
	fields := ir.Carve(&s.fields, len(proxyFields))
	copy(fields, proxyFields[:])
	*p = ir.Class{
		Name:       n.name[slot],
		Super:      ir.ObjectClass,
		Interfaces: one(&s.strs, n.name[iface]),
		Meta:       n.meta[slot],
		Fields:     fields,
		Methods:    s.list(1 + len(members)),
	}
	p.Methods = append(p.Methods, s.method(ir.Method{
		Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic,
		MaxLocals: 1,
		Code:      s.body(objectCtorBody[:]...),
	}))
	for _, m := range members {
		nm := s.method(*m)
		nm.Abstract = false
		nm.Native = true
		p.Methods = append(p.Methods, nm)
	}
}

// makeOFactory generates A_O_Factory (§2.3): a native, policy-driven
// make() plus one bytecode init method per original constructor holding
// the rewritten constructor body.
func (t *transformer) makeOFactory(s *slabs, rw *ir.Rewriter, c *ir.Class, n *familyNames, ctors int, f *ir.Class) error {
	ointRef := ir.Ref(n.name[slotOInt])
	*f = ir.Class{
		Name:    n.name[slotOFactory],
		Super:   ir.ObjectClass,
		Meta:    n.meta[slotOFactory],
		Methods: s.list(1 + ctors),
	}
	f.Methods = append(f.Methods, s.method(ir.Method{
		Name: MakeMethod, Return: ointRef,
		Static: true, Native: true, Access: ir.AccessPublic,
	}))
	for ctor := range c.Constructors() {
		code, handlers, err := t.rewriteCode(rw, codeCtx{ownClass: c.Name, skip: t.superCallSkip(ctor.Code)}, ctor.Code, ctor.Handlers)
		if err != nil {
			return err
		}
		params := ir.Carve(&s.types, 1+len(ctor.Params))
		params[0] = ointRef
		t.mapTypes(params[1:], ctor.Params)
		f.Methods = append(f.Methods, s.method(ir.Method{
			Name:      InitMethod,
			Params:    params,
			Return:    ir.Void,
			Static:    true,
			Access:    ir.AccessPublic,
			Code:      code,
			Handlers:  handlers,
			MaxLocals: ctor.MaxLocals,
		}))
	}
	return nil
}

// makeCFactory generates A_C_Factory (§2.3): native discover(), the
// clinit method holding the rewritten static initialiser, and forwarders
// that let any code reach static members through discover() without
// being implementation-aware.
func (t *transformer) makeCFactory(s *slabs, rw *ir.Rewriter, c *ir.Class, n *familyNames, cint *ir.Class, staticInit *ir.Method, f *ir.Class) error {
	name := n.name[slotCFactory]
	cintRef := ir.Ref(cint.Name)
	*f = ir.Class{
		Name:    name,
		Super:   ir.ObjectClass,
		Meta:    n.meta[slotCFactory],
		Methods: s.list(2 + len(cint.Methods)),
	}
	f.Methods = append(f.Methods, s.method(ir.Method{
		Name: DiscoverMethod, Return: cintRef,
		Static: true, Native: true, Access: ir.AccessPublic,
	}))
	// clinit(that): rewritten original <clinit> (or empty).
	clinit := s.method(ir.Method{
		Name:   ClinitMethod,
		Params: one(&s.types, cintRef),
		Return: ir.Void,
		Static: true,
		Access: ir.AccessPublic,
	})
	if staticInit != nil {
		code, handlers, err := t.rewriteCode(rw, codeCtx{
			ownClass: c.Name, slotShift: 1, ownStaticsViaLocal0: true,
		}, staticInit.Code, staticInit.Handlers)
		if err != nil {
			return err
		}
		clinit.Code = code
		clinit.Handlers = handlers
		clinit.MaxLocals = staticInit.MaxLocals + 1
	} else {
		clinit.Code = s.body(ir.Instr{Op: ir.OpReturn})
		clinit.MaxLocals = 1
	}
	f.Methods = append(f.Methods, clinit)

	// Forwarders: static get_f/set_f and one per static method, each
	// calling discover() then the interface method with the _C_Int's
	// signature.
	discover := ir.Instr{Op: ir.OpInvokeStatic, Owner: name, Member: DiscoverMethod}
	sigs := cint.Methods
	for range c.StaticFields() {
		get, set := sigs[0], sigs[1]
		sigs = sigs[2:]
		f.Methods = append(f.Methods,
			s.method(ir.Method{
				Name: get.Name, Return: get.Return, Static: true, Access: ir.AccessPublic,
				Code: s.body(
					discover,
					ir.Instr{Op: ir.OpInvokeInterface, Owner: cint.Name, Member: get.Name},
					ir.Instr{Op: ir.OpReturnValue}),
			}),
			s.method(ir.Method{
				Name: set.Name, Params: set.Params, Return: ir.Void,
				Static: true, Access: ir.AccessPublic, MaxLocals: 1,
				Code: s.body(
					discover,
					ir.Instr{Op: ir.OpLoad, A: 0},
					ir.Instr{Op: ir.OpInvokeInterface, Owner: cint.Name, Member: set.Name, NArgs: 1},
					ir.Instr{Op: ir.OpReturn}),
			}))
	}
	for m := range c.StaticMethods() {
		sig := sigs[0]
		sigs = sigs[1:]
		code := ir.Carve(&s.code, 3+len(sig.Params))
		code[0] = discover
		for i := range sig.Params {
			code[1+i] = ir.Instr{Op: ir.OpLoad, A: int64(i)}
		}
		code[len(code)-2] = ir.Instr{Op: ir.OpInvokeInterface, Owner: cint.Name, Member: m.Name, NArgs: len(sig.Params)}
		code[len(code)-1] = ir.Instr{Op: ir.OpReturnValue}
		if m.Return.IsVoid() {
			code[len(code)-1] = ir.Instr{Op: ir.OpReturn}
		}
		f.Methods = append(f.Methods, s.method(ir.Method{
			Name:      m.Name,
			Params:    sig.Params,
			Return:    sig.Return,
			Static:    true,
			Access:    ir.AccessPublic,
			Code:      code,
			MaxLocals: len(sig.Params),
		}))
	}
	return nil
}
