package rafda

import (
	"fmt"
	"io"
	"sort"

	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/transform"
	"rafda/internal/verifier"
	"rafda/internal/vm"
)

// Program is a compiled (or transformed) class program.
type Program struct {
	ir *ir.Program
}

// Compile compiles a set of named mini-Java sources.
func Compile(sources map[string]string) (*Program, error) {
	p, err := minijava.CompileFiles(sources)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// CompileString compiles a single source string.
func CompileString(src string) (*Program, error) {
	return Compile(map[string]string{"input.mj": src})
}

// MustCompileString is CompileString that panics; for examples with
// static sources.
func MustCompileString(src string) *Program {
	p, err := CompileString(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Decode reads a program previously written with Encode.
func Decode(r io.Reader) (*Program, error) {
	p, err := ir.DecodeProgram(r)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// Encode writes the program in the binary archive format.
func (p *Program) Encode(w io.Writer) error { return ir.EncodeProgram(w, p.ir) }

// Classes returns all class names, sorted.
func (p *Program) Classes() []string { return p.ir.SortedNames() }

// Has reports whether the named class exists.
func (p *Program) Has(class string) bool { return p.ir.Has(class) }

// Disassemble renders one class; with code when full is set.
func (p *Program) Disassemble(class string, full bool) (string, error) {
	c := p.ir.Class(class)
	if c == nil {
		return "", fmt.Errorf("no class %q", class)
	}
	return ir.Sprint(c, ir.PrintOptions{Code: full}), nil
}

// Verify runs the structural and stack verifier over the program.
func (p *Program) Verify() []error { return verifier.Verify(p.ir) }

// Run executes `static void main()` on mainClass in a fresh VM without
// any transformation, writing console output to out.  The VM runs on the
// program itself, which it never mutates.
func (p *Program) Run(mainClass string, out io.Writer) error {
	opts := []vm.Option{}
	if out != nil {
		opts = append(opts, vm.WithOutput(out))
	}
	machine, err := vm.New(p.ir, opts...)
	if err != nil {
		return err
	}
	return machine.RunMain(mainClass)
}

// Analysis is a substitutability analysis (§2.4).
type Analysis struct {
	a *transform.Analysis
}

// Analyze computes which classes are transformable, with optional
// policy exclusions.
func (p *Program) Analyze(exclude ...string) *Analysis {
	return &Analysis{a: transform.Analyze(p.ir, exclude...)}
}

// Transformable reports whether the class may be substituted.
func (a *Analysis) Transformable(class string) bool { return a.a.Transformable(class) }

// Why explains why a class cannot be transformed ("transformable"
// otherwise), naming the inducing class for closure rules.
func (a *Analysis) Why(class string) string {
	c := a.a.Cause(class)
	if c.Reason == transform.ReasonNone {
		if a.a.Transformable(class) {
			return "transformable"
		}
		return "unknown class"
	}
	if c.Via != "" {
		return fmt.Sprintf("%s (via %s)", c.Reason, c.Via)
	}
	return c.Reason.String()
}

// Report renders the per-reason breakdown.
func (a *Analysis) Report() string { return a.a.Report() }

// Stats summarises the analysis.
type Stats struct {
	Total            int
	Transformable    int
	NonTransformable int
	Percent          float64
	ByReason         map[string]int
}

// Stats returns summary counts.
func (a *Analysis) Stats() Stats {
	s := a.a.Stats()
	out := Stats{
		Total:            s.Total,
		Transformable:    s.Transformable,
		NonTransformable: s.NonTransformable,
		Percent:          s.Percent(),
		ByReason:         map[string]int{},
	}
	for r, n := range s.ByReason {
		out.ByReason[r.String()] = n
	}
	return out
}

// TransformOption configures Transform.
type TransformOption func(*transform.Options)

// WithProtocols selects the proxy protocol families to generate
// (default: rrp, soap, json).
func WithProtocols(protos ...string) TransformOption {
	return func(o *transform.Options) { o.Protocols = protos }
}

// WithExclude bars classes from transformation by policy.
func WithExclude(classes ...string) TransformOption {
	return func(o *transform.Options) { o.Exclude = classes }
}

// Transformed is the result of the paper's §2 transformation.
type Transformed struct {
	res *transform.Result
}

// Transform applies the full transformation pipeline.
func (p *Program) Transform(opts ...TransformOption) (*Transformed, error) {
	var o transform.Options
	for _, f := range opts {
		f(&o)
	}
	res, err := transform.Transform(p.ir, o)
	if err != nil {
		return nil, err
	}
	return &Transformed{res: res}, nil
}

// ErrNotTransformed is LoadTransformed's refusal of a program that
// holds no generated factory, such as a plain `rafdac compile` archive.
var ErrNotTransformed = transform.ErrNotTransformed

// LoadTransformed reconstructs a Transformed from an already-transformed
// program (e.g. a decoded archive produced by `rafdac transform`), so
// nodes can be built without re-running the transformation.  A plain
// program is refused with ErrNotTransformed, whatever its classes are
// called.
func LoadTransformed(p *Program) (*Transformed, error) {
	res, err := transform.Reconstruct(p.ir)
	if err != nil {
		return nil, err
	}
	return &Transformed{res: res}, nil
}

// Program returns the transformed program.
func (t *Transformed) Program() *Program { return &Program{ir: t.res.Program} }

// TransformedClasses lists the substituted classes, sorted.
func (t *Transformed) TransformedClasses() []string {
	out := append([]string(nil), t.res.Transformed...)
	sort.Strings(out)
	return out
}

// Protocols returns the generated proxy protocol families.
func (t *Transformed) Protocols() []string {
	return append([]string(nil), t.res.Protocols...)
}

// Analysis returns the substitutability analysis the transformation used.
func (t *Transformed) Analysis() *Analysis { return &Analysis{a: t.res.Analysis} }

// RunLocal executes the transformed program in a single address space
// with the all-local policy — the paper's §4 "local version" — writing
// output to out.  Like every node built from t, the VM shares t's
// program.
func (t *Transformed) RunLocal(mainClass string, out io.Writer) error {
	opts := []vm.Option{}
	if out != nil {
		opts = append(opts, vm.WithOutput(out))
	}
	machine, err := vm.New(t.res.Program, opts...)
	if err != nil {
		return err
	}
	transform.BindLocal(machine, t.res)
	return transform.RunMain(machine, t.res, mainClass)
}
