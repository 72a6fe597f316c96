package transform

import "rafda/internal/ir"

// transformer carries the read-only state shared while generating one
// program: the source program and its finished analysis.  Its methods
// only read it, so families for different classes build concurrently.
type transformer struct {
	a         *Analysis
	src       *ir.Program
	protocols []string
}

// family builds the full generated family for one transformable class:
// _O_Int, _O_Local, _C_Int, _C_Local, _O_Factory, _C_Factory, then
// _O_Proxy_* and _C_Proxy_* per protocol.
func (t *transformer) family(c *ir.Class) ([]*ir.Class, error) {
	oint := t.makeOInt(c)
	olocal, err := t.makeOLocal(c)
	if err != nil {
		return nil, err
	}
	cint := t.makeCInt(c)
	clocal, err := t.makeCLocal(c)
	if err != nil {
		return nil, err
	}
	ofac, err := t.makeOFactory(c)
	if err != nil {
		return nil, err
	}
	cfac, err := t.makeCFactory(c)
	if err != nil {
		return nil, err
	}
	generated := make([]*ir.Class, 0, 6+2*len(t.protocols))
	generated = append(generated, oint, olocal, cint, clocal, ofac, cfac)
	for _, proto := range t.protocols {
		generated = append(generated,
			t.makeOProxy(c, proto),
			t.makeCProxy(c, proto))
	}
	return generated, nil
}

// propertyPair builds the abstract get_/set_ declarations for one field.
func (t *transformer) propertyPair(f ir.Field) []*ir.Method {
	ft := mapType(t.a, f.Type)
	get := &ir.Method{
		Name: Getter(f.Name), Return: ft,
		Abstract: true, Access: ir.AccessPublic,
	}
	set := &ir.Method{
		Name: Setter(f.Name), Params: []ir.Type{ft}, Return: ir.Void,
		Abstract: true, Access: ir.AccessPublic,
	}
	return []*ir.Method{get, set}
}

// abstractSig builds the abstract interface declaration for a method,
// with mapped signature and public access (§2.1: all members become
// public since interfaces expose them).
func (t *transformer) abstractSig(m *ir.Method) *ir.Method {
	return &ir.Method{
		Name:     m.Name,
		Params:   mapTypes(t.a, m.Params),
		Return:   mapType(t.a, m.Return),
		Abstract: true,
		Access:   ir.AccessPublic,
	}
}

// makeOInt extracts the instance interface A_O_Int (§2.1).  When the
// superclass is transformable the interface extends the superclass's,
// so interface-typed references are substitutable along the hierarchy.
func (t *transformer) makeOInt(c *ir.Class) *ir.Class {
	oint := &ir.Class{
		Name:        OInt(c.Name),
		IsInterface: true,
		Abstract:    true,
		Meta:        "generated:o-int:" + c.Name,
	}
	if t.a.Transformable(c.Super) {
		oint.Interfaces = []string{OInt(c.Super)}
	}
	for _, f := range c.InstanceFields() {
		oint.Methods = append(oint.Methods, t.propertyPair(f)...)
	}
	for _, m := range c.InstanceMethods() {
		oint.Methods = append(oint.Methods, t.abstractSig(m))
	}
	return oint
}

// makeOLocal generates the non-remote implementation A_O_Local (§2.1):
// fields become private properties, the default constructor is added,
// and method bodies are rewritten to use only interface types.
func (t *transformer) makeOLocal(c *ir.Class) (*ir.Class, error) {
	name := OLocal(c.Name)
	super := ir.ObjectClass
	if t.a.Transformable(c.Super) {
		super = OLocal(c.Super)
	}
	ol := &ir.Class{
		Name:       name,
		Super:      super,
		Interfaces: []string{OInt(c.Name)},
		Abstract:   c.Abstract,
		Meta:       "generated:o-local:" + c.Name,
	}
	// Default parameter-less constructor: chains to the super default
	// constructor; all original constructor functionality lives in the
	// factories.
	ol.Methods = append(ol.Methods, &ir.Method{
		Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic,
		MaxLocals: 1,
		Code: []ir.Instr{
			{Op: ir.OpLoad, A: 0},
			{Op: ir.OpInvokeSpecial, Owner: super, Member: ir.ConstructorName},
			{Op: ir.OpReturn},
		},
	})
	for _, f := range c.InstanceFields() {
		ft := mapType(t.a, f.Type)
		ol.Fields = append(ol.Fields, ir.Field{
			Name: f.Name, Type: ft, Access: ir.AccessPrivate,
		})
		ol.Methods = append(ol.Methods,
			&ir.Method{
				Name: Getter(f.Name), Return: ft, Access: ir.AccessPublic,
				MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpGetField, Owner: name, Member: f.Name},
					{Op: ir.OpReturnValue},
				},
			},
			&ir.Method{
				Name: Setter(f.Name), Params: []ir.Type{ft}, Return: ir.Void,
				Access: ir.AccessPublic, MaxLocals: 2,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpLoad, A: 1},
					{Op: ir.OpPutField, Owner: name, Member: f.Name},
					{Op: ir.OpReturn},
				},
			})
	}
	for _, m := range c.InstanceMethods() {
		nm := &ir.Method{
			Name:     m.Name,
			Params:   mapTypes(t.a, m.Params),
			Return:   mapType(t.a, m.Return),
			Abstract: m.Abstract,
			Access:   ir.AccessPublic,
		}
		if !m.Abstract {
			code, handlers, err := rewriteCode(t.a, codeCtx{ownClass: c.Name}, m.Code, m.Handlers)
			if err != nil {
				return nil, err
			}
			nm.Code = code
			nm.Handlers = handlers
			nm.MaxLocals = m.MaxLocals
		}
		ol.Methods = append(ol.Methods, nm)
	}
	return ol, nil
}

// flatOMembers collects the full member set visible through A_O_Int
// (its own and every transformable ancestor's), most-derived first.
// Proxy classes must implement all of them.
func (t *transformer) flatOMembers(c *ir.Class) []*ir.Method {
	var out []*ir.Method
	seen := map[string]bool{}
	add := func(m *ir.Method) {
		if !seen[m.Key()] {
			seen[m.Key()] = true
			out = append(out, m)
		}
	}
	for cur := c; cur != nil && t.a.Transformable(cur.Name); cur = t.src.Class(cur.Super) {
		for _, f := range cur.InstanceFields() {
			for _, pm := range t.propertyPair(f) {
				add(pm)
			}
		}
		for _, m := range cur.InstanceMethods() {
			add(t.abstractSig(m))
		}
		if cur.Super == "" {
			break
		}
	}
	return out
}

// makeOProxy generates A_O_Proxy_<proto>: every interface member is a
// native method bound by the node runtime to a remote invocation over
// the protocol's transport.
func (t *transformer) makeOProxy(c *ir.Class, proto string) *ir.Class {
	p := &ir.Class{
		Name:       OProxy(c.Name, proto),
		Super:      ir.ObjectClass,
		Interfaces: []string{OInt(c.Name)},
		Meta:       metaOProxy + proto + ":" + c.Name,
		Fields:     proxyFields(),
	}
	p.Methods = append(p.Methods, proxyCtor(p.Name))
	for _, m := range t.flatOMembers(c) {
		nm := *m
		nm.Abstract = false
		nm.Native = true
		p.Methods = append(p.Methods, &nm)
	}
	return p
}

// makeCInt extracts the class interface A_C_Int over static members
// (§2.2): statics are made non-static so interfaces can capture them.
func (t *transformer) makeCInt(c *ir.Class) *ir.Class {
	ci := &ir.Class{
		Name:        CInt(c.Name),
		IsInterface: true,
		Abstract:    true,
		Meta:        "generated:c-int:" + c.Name,
	}
	for _, f := range c.StaticFields() {
		ci.Methods = append(ci.Methods, t.propertyPair(f)...)
	}
	for _, m := range c.StaticMethods() {
		ci.Methods = append(ci.Methods, t.abstractSig(m))
	}
	return ci
}

// makeCLocal generates the singleton local statics implementation (§2.2:
// "the uniqueness semantics of the static members is guaranteed by
// requiring that all generated implementations be singletons").
func (t *transformer) makeCLocal(c *ir.Class) (*ir.Class, error) {
	name := CLocal(c.Name)
	cl := &ir.Class{
		Name:       name,
		Super:      ir.ObjectClass,
		Interfaces: []string{CInt(c.Name)},
		Meta:       "generated:c-local:" + c.Name,
	}
	// Singleton declarations: private static C_Int me = new C_Local(),
	// then the class's rewritten initialiser, C_Factory.clinit(me), so
	// the original initialisation runs as this class's, with the VM's
	// run-once and wait rules; public static C_Int get_me().
	cl.Fields = append(cl.Fields, ir.Field{
		Name: SingletonField, Type: ir.Ref(CInt(c.Name)), Static: true, Access: ir.AccessPrivate,
	})
	cl.Methods = append(cl.Methods,
		&ir.Method{
			Name: ir.StaticInitName, Return: ir.Void, Static: true, Access: ir.AccessPrivate,
			Code: []ir.Instr{
				{Op: ir.OpNew, Owner: name},
				{Op: ir.OpDup},
				{Op: ir.OpInvokeSpecial, Owner: name, Member: ir.ConstructorName},
				{Op: ir.OpPutStatic, Owner: name, Member: SingletonField},
				{Op: ir.OpGetStatic, Owner: name, Member: SingletonField},
				{Op: ir.OpInvokeStatic, Owner: CFactory(c.Name), Member: ClinitMethod, NArgs: 1},
				{Op: ir.OpReturn},
			},
		},
		&ir.Method{
			Name: SingletonGet, Return: ir.Ref(CInt(c.Name)), Static: true, Access: ir.AccessPublic,
			Code: []ir.Instr{
				{Op: ir.OpGetStatic, Owner: name, Member: SingletonField},
				{Op: ir.OpReturnValue},
			},
		},
		&ir.Method{
			Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic,
			MaxLocals: 1,
			Code: []ir.Instr{
				{Op: ir.OpLoad, A: 0},
				{Op: ir.OpInvokeSpecial, Owner: ir.ObjectClass, Member: ir.ConstructorName},
				{Op: ir.OpReturn},
			},
		})
	for _, f := range c.StaticFields() {
		ft := mapType(t.a, f.Type)
		cl.Fields = append(cl.Fields, ir.Field{Name: f.Name, Type: ft, Access: ir.AccessPrivate})
		cl.Methods = append(cl.Methods,
			&ir.Method{
				Name: Getter(f.Name), Return: ft, Access: ir.AccessPublic, MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpGetField, Owner: name, Member: f.Name},
					{Op: ir.OpReturnValue},
				},
			},
			&ir.Method{
				Name: Setter(f.Name), Params: []ir.Type{ft}, Return: ir.Void,
				Access: ir.AccessPublic, MaxLocals: 2,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpLoad, A: 1},
					{Op: ir.OpPutField, Owner: name, Member: f.Name},
					{Op: ir.OpReturn},
				},
			})
	}
	// Original static methods become instance methods (slot shift +1);
	// own-class static accesses go through `this` as in Figure 4.
	for _, m := range c.StaticMethods() {
		code, handlers, err := rewriteCode(t.a, codeCtx{
			ownClass: c.Name, slotShift: 1, ownStaticsViaLocal0: true,
		}, m.Code, m.Handlers)
		if err != nil {
			return nil, err
		}
		cl.Methods = append(cl.Methods, &ir.Method{
			Name:      m.Name,
			Params:    mapTypes(t.a, m.Params),
			Return:    mapType(t.a, m.Return),
			Access:    ir.AccessPublic,
			Code:      code,
			Handlers:  handlers,
			MaxLocals: m.MaxLocals + 1,
		})
	}
	return cl, nil
}

// makeCProxy generates A_C_Proxy_<proto> for remote static access.
func (t *transformer) makeCProxy(c *ir.Class, proto string) *ir.Class {
	p := &ir.Class{
		Name:       CProxy(c.Name, proto),
		Super:      ir.ObjectClass,
		Interfaces: []string{CInt(c.Name)},
		Meta:       metaCProxy + proto + ":" + c.Name,
		Fields:     proxyFields(),
	}
	p.Methods = append(p.Methods, proxyCtor(p.Name))
	for _, f := range c.StaticFields() {
		for _, pm := range t.propertyPair(f) {
			nm := *pm
			nm.Abstract = false
			nm.Native = true
			p.Methods = append(p.Methods, &nm)
		}
	}
	for _, m := range c.StaticMethods() {
		nm := t.abstractSig(m)
		nm.Abstract = false
		nm.Native = true
		p.Methods = append(p.Methods, nm)
	}
	return p
}

func proxyFields() []ir.Field {
	return []ir.Field{
		{Name: ProxyFieldGUID, Type: ir.String, Access: ir.AccessPrivate},
		{Name: ProxyFieldEndpoint, Type: ir.String, Access: ir.AccessPrivate},
		{Name: ProxyFieldProto, Type: ir.String, Access: ir.AccessPrivate},
		{Name: ProxyFieldTarget, Type: ir.String, Access: ir.AccessPrivate},
	}
}

func proxyCtor(name string) *ir.Method {
	return &ir.Method{
		Name: ir.ConstructorName, Return: ir.Void, Access: ir.AccessPublic,
		MaxLocals: 1,
		Code: []ir.Instr{
			{Op: ir.OpLoad, A: 0},
			{Op: ir.OpInvokeSpecial, Owner: ir.ObjectClass, Member: ir.ConstructorName},
			{Op: ir.OpReturn},
		},
	}
}

// makeOFactory generates A_O_Factory (§2.3): a native, policy-driven
// make() plus one bytecode init method per original constructor holding
// the rewritten constructor body.
func (t *transformer) makeOFactory(c *ir.Class) (*ir.Class, error) {
	name := OFactory(c.Name)
	f := &ir.Class{
		Name:  name,
		Super: ir.ObjectClass,
		Meta:  "generated:o-factory:" + c.Name,
	}
	f.Methods = append(f.Methods, &ir.Method{
		Name: MakeMethod, Return: ir.Ref(OInt(c.Name)),
		Static: true, Native: true, Access: ir.AccessPublic,
	})
	for _, ctor := range c.Constructors() {
		skips := objectSuperCallSkips(t.a, ctor.Code)
		code, handlers, err := rewriteCode(t.a, codeCtx{ownClass: c.Name, skip: skips}, ctor.Code, ctor.Handlers)
		if err != nil {
			return nil, err
		}
		params := append([]ir.Type{ir.Ref(OInt(c.Name))}, mapTypes(t.a, ctor.Params)...)
		f.Methods = append(f.Methods, &ir.Method{
			Name:      InitMethod,
			Params:    params,
			Return:    ir.Void,
			Static:    true,
			Access:    ir.AccessPublic,
			Code:      code,
			Handlers:  handlers,
			MaxLocals: ctor.MaxLocals,
		})
	}
	return f, nil
}

// makeCFactory generates A_C_Factory (§2.3): native discover(), the
// clinit method holding the rewritten static initialiser, and forwarders
// that let any code reach static members through discover() without
// being implementation-aware.
func (t *transformer) makeCFactory(c *ir.Class) (*ir.Class, error) {
	name := CFactory(c.Name)
	cintName := CInt(c.Name)
	f := &ir.Class{
		Name:  name,
		Super: ir.ObjectClass,
		Meta:  "generated:c-factory:" + c.Name,
	}
	f.Methods = append(f.Methods, &ir.Method{
		Name: DiscoverMethod, Return: ir.Ref(cintName),
		Static: true, Native: true, Access: ir.AccessPublic,
	})
	// clinit(that): rewritten original <clinit> (or empty).
	clinitMethod := &ir.Method{
		Name:   ClinitMethod,
		Params: []ir.Type{ir.Ref(cintName)},
		Return: ir.Void,
		Static: true,
		Access: ir.AccessPublic,
	}
	if orig := c.StaticInit(); orig != nil {
		code, handlers, err := rewriteCode(t.a, codeCtx{
			ownClass: c.Name, slotShift: 1, ownStaticsViaLocal0: true,
		}, orig.Code, orig.Handlers)
		if err != nil {
			return nil, err
		}
		clinitMethod.Code = code
		clinitMethod.Handlers = handlers
		clinitMethod.MaxLocals = orig.MaxLocals + 1
	} else {
		clinitMethod.Code = []ir.Instr{{Op: ir.OpReturn}}
		clinitMethod.MaxLocals = 1
	}
	f.Methods = append(f.Methods, clinitMethod)

	// Forwarders: static get_f/set_f and one per static method, each
	// calling discover() then the interface method.
	for _, fd := range c.StaticFields() {
		ft := mapType(t.a, fd.Type)
		f.Methods = append(f.Methods,
			&ir.Method{
				Name: Getter(fd.Name), Return: ft, Static: true, Access: ir.AccessPublic,
				Code: []ir.Instr{
					{Op: ir.OpInvokeStatic, Owner: name, Member: DiscoverMethod},
					{Op: ir.OpInvokeInterface, Owner: cintName, Member: Getter(fd.Name)},
					{Op: ir.OpReturnValue},
				},
			},
			&ir.Method{
				Name: Setter(fd.Name), Params: []ir.Type{ft}, Return: ir.Void,
				Static: true, Access: ir.AccessPublic, MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpInvokeStatic, Owner: name, Member: DiscoverMethod},
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpInvokeInterface, Owner: cintName, Member: Setter(fd.Name), NArgs: 1},
					{Op: ir.OpReturn},
				},
			})
	}
	for _, m := range c.StaticMethods() {
		params := mapTypes(t.a, m.Params)
		b := ir.NewCodeBuilder()
		b.Invoke(ir.OpInvokeStatic, name, DiscoverMethod, 0)
		for i := range params {
			b.Load(i)
		}
		b.Invoke(ir.OpInvokeInterface, cintName, m.Name, len(params))
		if m.Return.IsVoid() {
			b.Return()
		} else {
			b.ReturnValue()
		}
		b.SetMinLocals(len(params))
		f.Methods = append(f.Methods, &ir.Method{
			Name:      m.Name,
			Params:    params,
			Return:    mapType(t.a, m.Return),
			Static:    true,
			Access:    ir.AccessPublic,
			Code:      b.MustBuild(),
			MaxLocals: len(params),
		})
	}
	return f, nil
}
