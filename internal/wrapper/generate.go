package wrapper

import (
	"rafda/internal/ir"
	"rafda/internal/transform"
)

// makeWrapper generates A_Wrapper: a subclass of A holding the real
// instance in __target and overriding every visible instance method
// (including the generated accessors) with a forwarding body.
func makeWrapper(a *transform.Analysis, prog *ir.Program, c *ir.Class) *ir.Class {
	name := WrapperOf(c.Name)
	w := &ir.Class{
		Name:  name,
		Super: c.Name,
		Meta:  "generated:wrapper:" + c.Name,
		Fields: []ir.Field{
			{Name: TargetField, Type: ir.Ref(c.Name), Access: ir.AccessPrivate},
		},
	}
	// Constructor: <init>(A target) { this.__target = target; }
	// The superclass constructor is deliberately not run: the wrapper's
	// inherited fields are dead state, all access forwards to target.
	w.Methods = append(w.Methods, &ir.Method{
		Name: ir.ConstructorName, Params: []ir.Type{ir.Ref(c.Name)}, Return: ir.Void,
		Access: ir.AccessPublic, MaxLocals: 2,
		Code: []ir.Instr{
			{Op: ir.OpLoad, A: 0},
			{Op: ir.OpLoad, A: 1},
			{Op: ir.OpPutField, Owner: name, Member: TargetField},
			{Op: ir.OpReturn},
		},
	})
	// static A wrap(A target) { return new A_Wrapper(target); }
	w.Methods = append(w.Methods, &ir.Method{
		Name: WrapMethod, Params: []ir.Type{ir.Ref(c.Name)}, Return: ir.Ref(c.Name),
		Static: true, Access: ir.AccessPublic, MaxLocals: 1,
		Code: []ir.Instr{
			{Op: ir.OpNew, Owner: name},
			{Op: ir.OpDup},
			{Op: ir.OpLoad, A: 0},
			{Op: ir.OpInvokeSpecial, Owner: name, Member: ir.ConstructorName, NArgs: 1},
			{Op: ir.OpReturnValue},
		},
	})
	// Forwarding overrides for every visible instance method declared in
	// the transformable part of the hierarchy, plus the accessors that
	// augmentClass adds.
	seen := map[string]bool{}
	forward := func(mname string, params []ir.Type, ret ir.Type) {
		key := ir.MethodKey(mname, len(params))
		if seen[key] {
			return
		}
		seen[key] = true
		b := ir.NewCodeBuilder()
		b.Load(0)
		b.GetField(name, TargetField)
		for i := range params {
			b.Load(i + 1)
		}
		b.Invoke(ir.OpInvokeVirtual, c.Name, mname, len(params))
		if ret.IsVoid() {
			b.Return()
		} else {
			b.ReturnValue()
		}
		b.SetMinLocals(len(params) + 1)
		w.Methods = append(w.Methods, &ir.Method{
			Name: mname, Params: append([]ir.Type(nil), params...), Return: ret,
			Access: ir.AccessPublic, Code: b.MustBuild(), MaxLocals: b.MaxLocals(),
		})
	}
	for cur := c; cur != nil && a.Transformable(cur.Name); {
		for f := range cur.InstanceFields() {
			forward(transform.Getter(f.Name), nil, f.Type)
			forward(transform.Setter(f.Name), []ir.Type{f.Type}, ir.Void)
		}
		for m := range cur.InstanceMethods() {
			if m.Native {
				continue
			}
			forward(m.Name, m.Params, m.Return)
		}
		if cur.Super == "" {
			break
		}
		cur = prog.Class(cur.Super)
	}
	return w
}
