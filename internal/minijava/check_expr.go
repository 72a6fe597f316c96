package minijava

import "rafda/internal/ir"

// exprAsClassName interprets an Ident / FieldAccess chain as a (possibly
// dotted) class name, or returns "".
func exprAsClassName(e Expr) string {
	switch t := e.(type) {
	case *Ident:
		return t.Name
	case *FieldAccess:
		if t.Recv == nil {
			return ""
		}
		prefix := exprAsClassName(t.Recv)
		if prefix == "" {
			return ""
		}
		return prefix + "." + t.Name
	default:
		return ""
	}
}

// classNameVisible reports whether name denotes a class not shadowed by a
// local variable in the current scope (only the first segment can shadow).
func (mc *methodCtx) classNameVisible(name string) bool {
	if !mc.c.sig.Has(name) {
		return false
	}
	first := name
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			first = name[:i]
			break
		}
	}
	if _, shadowed := mc.scope.lookup(first); shadowed {
		return false
	}
	return true
}

func (mc *methodCtx) checkExpr(e Expr) (ir.Type, error) {
	t, err := mc.checkExprInner(e)
	if err != nil {
		return ir.Type{}, err
	}
	e.setT(t)
	return t, nil
}

func (mc *methodCtx) checkExprInner(e Expr) (ir.Type, error) {
	switch t := e.(type) {
	case *IntLit:
		return ir.Int, nil
	case *FloatLit:
		return ir.Float, nil
	case *StringLit:
		return ir.String, nil
	case *BoolLit:
		return ir.Bool, nil
	case *NullLit:
		return nullType, nil

	case *ThisExpr:
		if mc.irMethod.Static {
			return ir.Type{}, mc.errf(t.Pos, "'this' in static context")
		}
		return ir.Ref(mc.class.Name), nil

	case *Ident:
		// Local or parameter.
		if l, ok := mc.scope.lookup(t.Name); ok {
			t.Kind = IdentLocal
			t.Slot = l.slot
			return l.typ, nil
		}
		// Implicit this-field or own-class static, searching supers.
		if dc, f, err := mc.c.sig.ResolveField(mc.class.Name, t.Name); err == nil {
			if f.Static {
				t.Kind = IdentStatic
			} else {
				if mc.irMethod.Static {
					return ir.Type{}, mc.errf(t.Pos, "instance field %s in static context", t.Name)
				}
				t.Kind = IdentField
			}
			t.Owner = dc.Name
			return f.Type, nil
		}
		return ir.Type{}, mc.errf(t.Pos, "undefined name %s", t.Name)

	case *FieldAccess:
		// Class-qualified static access: C.f.
		if cn := exprAsClassName(t.Recv); cn != "" && mc.classNameVisible(cn) {
			dc, f, err := mc.c.sig.ResolveField(cn, t.Name)
			if err != nil || !f.Static {
				return ir.Type{}, mc.errf(t.Pos, "no static field %s.%s", cn, t.Name)
			}
			t.Static = true
			t.Class = cn
			t.Owner = dc.Name
			t.Recv = nil
			return f.Type, nil
		}
		rt, err := mc.checkExpr(t.Recv)
		if err != nil {
			return ir.Type{}, err
		}
		if rt.IsArray() && t.Name == "length" {
			t.IsArrayLen = true
			return ir.Int, nil
		}
		if !rt.IsRef() {
			return ir.Type{}, mc.errf(t.Pos, "field access on non-object type %s", rt)
		}
		dc, f, err := mc.c.sig.ResolveField(rt.Name, t.Name)
		if err != nil {
			return ir.Type{}, mc.errf(t.Pos, "no field %s on %s", t.Name, rt.Name)
		}
		if f.Static {
			return ir.Type{}, mc.errf(t.Pos, "static field %s accessed through instance", t.Name)
		}
		t.Owner = dc.Name
		return f.Type, nil

	case *CallExpr:
		return mc.checkCall(t)

	case *NewExpr:
		cls := mc.c.sig.Class(t.Class)
		if cls == nil {
			return ir.Type{}, mc.errf(t.Pos, "unknown class %s", t.Class)
		}
		if cls.IsInterface || cls.Abstract {
			return ir.Type{}, mc.errf(t.Pos, "cannot instantiate %s", t.Class)
		}
		ctor := cls.Method(ir.ConstructorName, len(t.Args))
		if ctor == nil {
			return ir.Type{}, mc.errf(t.Pos, "%s has no constructor with %d argument(s)", t.Class, len(t.Args))
		}
		if err := mc.checkArgs(t.Pos, t.Args, ctor.Params); err != nil {
			return ir.Type{}, err
		}
		return ir.Ref(t.Class), nil

	case *NewArrayExpr:
		elem, err := mc.c.resolveType(t.Elem)
		if err != nil {
			return ir.Type{}, err
		}
		if elem.IsVoid() {
			return ir.Type{}, mc.errf(t.Pos, "array of void")
		}
		lt, err := mc.checkExpr(t.Len)
		if err != nil {
			return ir.Type{}, err
		}
		if lt.Kind != ir.KindInt {
			return ir.Type{}, mc.errf(t.Pos, "array length must be int, got %s", lt)
		}
		return ir.ArrayOf(elem), nil

	case *IndexExpr:
		at, err := mc.checkExpr(t.Arr)
		if err != nil {
			return ir.Type{}, err
		}
		if !at.IsArray() {
			return ir.Type{}, mc.errf(t.Pos, "indexing non-array type %s", at)
		}
		it, err := mc.checkExpr(t.Index)
		if err != nil {
			return ir.Type{}, err
		}
		if it.Kind != ir.KindInt {
			return ir.Type{}, mc.errf(t.Pos, "array index must be int, got %s", it)
		}
		return *at.Elem, nil

	case *UnaryExpr:
		et, err := mc.checkExpr(t.E)
		if err != nil {
			return ir.Type{}, err
		}
		switch t.Op {
		case "-":
			if !et.IsNumeric() {
				return ir.Type{}, mc.errf(t.Pos, "negation of non-numeric %s", et)
			}
			return et, nil
		case "!":
			if et.Kind != ir.KindBool {
				return ir.Type{}, mc.errf(t.Pos, "logical not of non-bool %s", et)
			}
			return ir.Bool, nil
		}
		return ir.Type{}, mc.errf(t.Pos, "bad unary operator %s", t.Op)

	case *BinaryExpr:
		return mc.checkBinary(t)

	case *CastExpr:
		target, err := mc.c.resolveType(t.Target)
		if err != nil {
			return ir.Type{}, err
		}
		et, err := mc.checkExpr(t.E)
		if err != nil {
			return ir.Type{}, err
		}
		switch {
		case target.IsNumeric() && et.IsNumeric():
			return target, nil
		case target.IsRef() && (et.IsRef() || isNullType(et)):
			return target, nil
		case target.IsArray() && (et.IsArray() || isNullType(et)):
			return target, nil
		case target.Equal(et):
			return target, nil
		default:
			return ir.Type{}, mc.errf(t.Pos, "cannot cast %s to %s", et, target)
		}

	case *InstanceOfExpr:
		et, err := mc.checkExpr(t.E)
		if err != nil {
			return ir.Type{}, err
		}
		if !et.IsRef() {
			return ir.Type{}, mc.errf(t.Pos, "instanceof on non-object type %s", et)
		}
		if !mc.c.sig.Has(t.Class) {
			return ir.Type{}, mc.errf(t.Pos, "unknown class %s", t.Class)
		}
		return ir.Bool, nil

	default:
		return ir.Type{}, mc.errf(e.exprPos(), "internal: unknown expression %T", e)
	}
}

func (mc *methodCtx) checkCall(t *CallExpr) (ir.Type, error) {
	// Class-qualified static call: C.m(args).
	if t.Recv != nil {
		if cn := exprAsClassName(t.Recv); cn != "" && mc.classNameVisible(cn) {
			dc, m, err := mc.c.sig.ResolveMethod(cn, t.Method, len(t.Args))
			if err == nil && m.Static {
				t.Static = true
				t.Class = cn
				t.Owner = dc.Name
				t.Recv = nil
				if err := mc.checkArgs(t.Pos, t.Args, m.Params); err != nil {
					return ir.Type{}, err
				}
				return m.Return, nil
			}
			// Fall through: might be an instance call on a variable whose
			// first segment is not shadowed but also not a class... if cn
			// resolves to a class yet has no such static method, report.
			if err == nil && !m.Static {
				return ir.Type{}, mc.errf(t.Pos, "instance method %s.%s called statically", cn, t.Method)
			}
			return ir.Type{}, mc.errf(t.Pos, "no static method %s.%s with %d argument(s)", cn, t.Method, len(t.Args))
		}
	}

	// Implicit receiver: this.m(args) or own-class static.
	if t.Recv == nil && t.Class == "" {
		dc, m, err := mc.c.sig.ResolveMethod(mc.class.Name, t.Method, len(t.Args))
		if err != nil {
			return ir.Type{}, mc.errf(t.Pos, "undefined method %s with %d argument(s)", t.Method, len(t.Args))
		}
		if m.Static {
			t.Static = true
			t.Class = mc.class.Name
			t.Owner = dc.Name
		} else {
			if mc.irMethod.Static {
				return ir.Type{}, mc.errf(t.Pos, "instance method %s called in static context", t.Method)
			}
			t.ImplicitThis = true
			t.Owner = dc.Name
		}
		if err := mc.checkArgs(t.Pos, t.Args, m.Params); err != nil {
			return ir.Type{}, err
		}
		return m.Return, nil
	}

	// Instance call through an expression receiver.
	rt, err := mc.checkExpr(t.Recv)
	if err != nil {
		return ir.Type{}, err
	}
	if !rt.IsRef() {
		return ir.Type{}, mc.errf(t.Pos, "method call on non-object type %s", rt)
	}
	dc, m, err := mc.c.sig.ResolveMethod(rt.Name, t.Method, len(t.Args))
	if err != nil {
		// Interface receivers may still use sys.Object methods.
		if rc := mc.c.sig.Class(rt.Name); rc != nil && rc.IsInterface {
			if odc, om, oerr := mc.c.sig.ResolveMethod(ir.ObjectClass, t.Method, len(t.Args)); oerr == nil {
				dc, m, err = odc, om, nil
			}
		}
	}
	if err != nil {
		return ir.Type{}, mc.errf(t.Pos, "no method %s on %s with %d argument(s)", t.Method, rt.Name, len(t.Args))
	}
	if m.Static {
		return ir.Type{}, mc.errf(t.Pos, "static method %s called through instance", t.Method)
	}
	t.Owner = dc.Name
	if rc := mc.c.sig.Class(rt.Name); rc != nil && rc.IsInterface {
		t.OnInterface = true
	}
	if err := mc.checkArgs(t.Pos, t.Args, m.Params); err != nil {
		return ir.Type{}, err
	}
	return m.Return, nil
}

func (mc *methodCtx) checkArgs(pos Pos, args []Expr, params []ir.Type) error {
	if len(args) != len(params) {
		return mc.errf(pos, "want %d argument(s), got %d", len(params), len(args))
	}
	for i, a := range args {
		at, err := mc.checkExpr(a)
		if err != nil {
			return err
		}
		if !mc.c.assignable(at, params[i]) {
			return mc.errf(a.exprPos(), "argument %d: cannot use %s as %s", i+1, at, params[i])
		}
	}
	return nil
}

func (mc *methodCtx) checkBinary(t *BinaryExpr) (ir.Type, error) {
	lt, err := mc.checkExpr(t.L)
	if err != nil {
		return ir.Type{}, err
	}
	rt, err := mc.checkExpr(t.R)
	if err != nil {
		return ir.Type{}, err
	}
	switch t.Op {
	case "&&", "||":
		if lt.Kind != ir.KindBool || rt.Kind != ir.KindBool {
			return ir.Type{}, mc.errf(t.Pos, "%s requires bool operands, got %s and %s", t.Op, lt, rt)
		}
		return ir.Bool, nil

	case "+":
		if lt.Kind == ir.KindString || rt.Kind == ir.KindString {
			if !concatable(lt) || !concatable(rt) {
				return ir.Type{}, mc.errf(t.Pos, "cannot concatenate %s and %s", lt, rt)
			}
			t.IsConcat = true
			return ir.String, nil
		}
		fallthrough
	case "-", "*", "/", "%":
		if !lt.IsNumeric() || !rt.IsNumeric() {
			return ir.Type{}, mc.errf(t.Pos, "%s requires numeric operands, got %s and %s", t.Op, lt, rt)
		}
		if lt.Kind == ir.KindFloat || rt.Kind == ir.KindFloat {
			return ir.Float, nil
		}
		return ir.Int, nil

	case "==", "!=":
		ok := false
		switch {
		case lt.IsNumeric() && rt.IsNumeric():
			ok = true
		case lt.Kind == ir.KindBool && rt.Kind == ir.KindBool:
			ok = true
		case lt.Kind == ir.KindString && rt.Kind == ir.KindString:
			ok = true
		case (lt.IsRef() || lt.IsArray() || isNullType(lt)) && (rt.IsRef() || rt.IsArray() || isNullType(rt)):
			ok = true
		}
		if !ok {
			return ir.Type{}, mc.errf(t.Pos, "cannot compare %s and %s", lt, rt)
		}
		return ir.Bool, nil

	case "<", "<=", ">", ">=":
		if (lt.IsNumeric() && rt.IsNumeric()) ||
			(lt.Kind == ir.KindString && rt.Kind == ir.KindString) {
			return ir.Bool, nil
		}
		return ir.Type{}, mc.errf(t.Pos, "cannot order %s and %s", lt, rt)
	}
	return ir.Type{}, mc.errf(t.Pos, "bad binary operator %s", t.Op)
}

func concatable(t ir.Type) bool {
	switch t.Kind {
	case ir.KindString, ir.KindInt, ir.KindFloat, ir.KindBool, ir.KindRef:
		return true
	default:
		return false
	}
}
