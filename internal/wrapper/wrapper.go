// Package wrapper implements the alternative design the paper's §3
// discusses and rejects: instead of transforming classes against
// extracted interfaces, generate a wrapper per class that encapsulates a
// target instance and intercepts every access by forwarding.  "Although
// much simpler in terms of implementation, this introduces significantly
// greater overhead" — experiment E4 quantifies that claim against the
// RAFDA transformation.
//
// The wrapper for A extends A (so wrapped references remain type
// compatible), holds the real instance in __target, and overrides every
// method — including the property accessors that field accesses are
// rewritten to — with a forwarding body.  Each intercepted call costs an
// extra virtual dispatch plus a field indirection, which is the overhead
// E4 measures.
package wrapper

import (
	"fmt"

	"rafda/internal/ir"
	"rafda/internal/transform"
)

// Suffix of generated wrapper classes.
const Suffix = "_Wrapper"

// TargetField holds the wrapped instance.
const TargetField = "__target"

// WrapMethod is the static helper that wraps a freshly constructed
// instance.
const WrapMethod = "wrap"

// WrapperOf names the wrapper class for a class.
func WrapperOf(class string) string { return class + Suffix }

// Result is a completed wrapper transformation.
type Result struct {
	Program *ir.Program
	// Analysis reuses the RAFDA substitutability analysis: wrappers are
	// generated for exactly the classes RAFDA would transform, so the
	// comparison is like for like.
	Analysis *transform.Analysis
	Wrapped  []string
}

// Transform produces the wrapper-based version of prog: every
// substitutable class gains property accessors and a generated wrapper;
// field accesses are rewritten through the (virtual) accessors; every
// construction site is wrapped.
func Transform(prog *ir.Program, exclude ...string) (*Result, error) {
	analysis := transform.Analyze(prog, exclude...)
	out := ir.NewProgram()
	res := &Result{Analysis: analysis}
	for _, c := range prog.Classes() {
		if !analysis.Transformable(c.Name) {
			out.MustAdd(ir.CloneClass(c))
			continue
		}
		augmented, err := augmentClass(analysis, c)
		if err != nil {
			return nil, fmt.Errorf("wrap %s: %w", c.Name, err)
		}
		out.MustAdd(augmented)
		out.MustAdd(makeWrapper(analysis, prog, c))
		res.Wrapped = append(res.Wrapped, c.Name)
	}
	res.Program = out
	return res, nil
}

// augmentClass adds get_/set_ accessors for every instance field and
// rewrites the class's code so field accesses and constructions go
// through the interception points.
func augmentClass(a *transform.Analysis, c *ir.Class) (*ir.Class, error) {
	n := ir.CloneClass(c)
	for f := range c.InstanceFields() {
		n.Methods = append(n.Methods,
			&ir.Method{
				Name: transform.Getter(f.Name), Return: f.Type, Access: ir.AccessPublic,
				MaxLocals: 1,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpGetField, Owner: c.Name, Member: f.Name},
					{Op: ir.OpReturnValue},
				},
			},
			&ir.Method{
				Name: transform.Setter(f.Name), Params: []ir.Type{f.Type}, Return: ir.Void,
				Access: ir.AccessPublic, MaxLocals: 2,
				Code: []ir.Instr{
					{Op: ir.OpLoad, A: 0},
					{Op: ir.OpLoad, A: 1},
					{Op: ir.OpPutField, Owner: c.Name, Member: f.Name},
					{Op: ir.OpReturn},
				},
			})
	}
	for _, m := range n.Methods {
		if m.Abstract || m.Native || len(m.Code) == 0 {
			continue
		}
		if isAccessor(c, m) {
			continue
		}
		var err error
		if m.Code, m.Handlers, err = rewriteWrapped(a, m.Code, m.Handlers); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// isAccessor reports whether m is one of the accessors just generated
// (their direct field access must survive).
func isAccessor(c *ir.Class, m *ir.Method) bool {
	for f := range c.InstanceFields() {
		if m.Name == transform.Getter(f.Name) && len(m.Params) == 0 {
			return true
		}
		if m.Name == transform.Setter(f.Name) && len(m.Params) == 1 {
			return true
		}
	}
	return false
}

// rewriteWrapped rewrites a body: field accesses on wrapped classes
// become accessor calls; constructions gain a wrap() call.
//
// Construction sites are distinguished from super-constructor calls by
// matching each constructor invocation against pending OpNew owners in
// LIFO order (the stack discipline construction sequences follow).
func rewriteWrapped(a *transform.Analysis, code []ir.Instr, handlers []ir.TryHandler) ([]ir.Instr, []ir.TryHandler, error) {
	var pendingNew []string
	return ir.Rewrite(code, handlers, func(out []ir.Instr, _ int, in ir.Instr) ([]ir.Instr, error) {
		switch {
		case in.Op == ir.OpNew:
			pendingNew = append(pendingNew, in.Owner)
			out = append(out, in)
		case in.Op == ir.OpGetField && a.Transformable(in.Owner):
			out = append(out, ir.Instr{Op: ir.OpInvokeVirtual, Owner: in.Owner, Member: transform.Getter(in.Member)})
		case in.Op == ir.OpPutField && a.Transformable(in.Owner):
			out = append(out, ir.Instr{Op: ir.OpInvokeVirtual, Owner: in.Owner, Member: transform.Setter(in.Member), NArgs: 1})
		case in.Op == ir.OpInvokeSpecial && in.Member == ir.ConstructorName &&
			len(pendingNew) > 0 && pendingNew[len(pendingNew)-1] == in.Owner:
			pendingNew = pendingNew[:len(pendingNew)-1]
			out = append(out, in)
			if a.Transformable(in.Owner) {
				out = append(out, ir.Instr{Op: ir.OpInvokeStatic, Owner: WrapperOf(in.Owner), Member: WrapMethod, NArgs: 1})
			}
		default:
			out = append(out, in)
		}
		return out, nil
	})
}
