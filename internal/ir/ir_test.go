package ir

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeDescriptorRoundTrip(t *testing.T) {
	cases := []Type{
		Void, Bool, Int, Float, String,
		Ref("X"), Ref("pkg.sub.Class"),
		ArrayOf(Int), ArrayOf(Ref("Y")), ArrayOf(ArrayOf(String)),
	}
	for _, c := range cases {
		d := c.Descriptor()
		back, err := ParseDescriptor(d)
		if err != nil {
			t.Fatalf("parse %q: %v", d, err)
		}
		if !back.Equal(c) {
			t.Fatalf("round trip %v -> %q -> %v", c, d, back)
		}
	}
}

// randomType builds an arbitrary type for property tests.
func randomType(r *rand.Rand, depth int) Type {
	switch k := r.Intn(7); {
	case k == 0:
		return Bool
	case k == 1:
		return Int
	case k == 2:
		return Float
	case k == 3:
		return String
	case k == 4 && depth > 0:
		return ArrayOf(randomType(r, depth-1))
	default:
		names := []string{"A", "B", "pkg.C", "sys.Object", "Very.Long.Name"}
		return Ref(names[r.Intn(len(names))])
	}
}

func TestTypeDescriptorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		typ := randomType(r, 3)
		back, err := ParseDescriptor(typ.Descriptor())
		return err == nil && back.Equal(typ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDescriptorErrors(t *testing.T) {
	for _, bad := range []string{"", "Q", "L", "Lfoo", "[", "II", "Lfoo;x"} {
		if _, err := ParseDescriptor(bad); err == nil {
			t.Errorf("descriptor %q should fail", bad)
		}
	}
}

// TestParseDescriptorDimsBounded pins the dimension bound: maxArrayDims
// levels parse, one more is rejected, and a frame-sized prefix of '['
// is rejected instead of exhausting the stack.
func TestParseDescriptorDimsBounded(t *testing.T) {
	deepest := strings.Repeat("[", maxArrayDims) + "I"
	typ, err := ParseDescriptor(deepest)
	if err != nil {
		t.Fatalf("%d dimensions rejected: %v", maxArrayDims, err)
	}
	if typ.Descriptor() != deepest {
		t.Fatalf("%d dimensions did not round-trip", maxArrayDims)
	}
	for _, dims := range []int{maxArrayDims + 1, 16 << 20} {
		if _, err := ParseDescriptor(strings.Repeat("[", dims) + "I"); err == nil {
			t.Errorf("%d dimensions accepted", dims)
		}
	}
}

// FuzzParseDescriptor feeds the descriptor parser arbitrary input.  It
// must never panic, and any descriptor it accepts must render back to
// exactly the input.
func FuzzParseDescriptor(f *testing.F) {
	for _, s := range []string{"V", "Z", "I", "F", "S", "Lpkg.C;", "[[I", "[Lsys.Object;",
		strings.Repeat("[", maxArrayDims) + "S"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		typ, err := ParseDescriptor(s)
		if err != nil {
			return
		}
		if d := typ.Descriptor(); d != s {
			t.Fatalf("accepted %q renders as %q", s, d)
		}
	})
}

func TestMethodKeysAndSignature(t *testing.T) {
	m := &Method{Name: "m", Params: []Type{Int, Ref("X")}, Return: ArrayOf(Int)}
	if m.Key() != "m/2" {
		t.Fatalf("key %q", m.Key())
	}
	if got := m.Signature(); got != "m(ILX;)[I" {
		t.Fatalf("signature %q", got)
	}
}

func sampleClass() *Class {
	return &Class{
		Name:       "demo.Sample",
		Super:      ObjectClass,
		Interfaces: []string{"demo.Iface"},
		Fields: []Field{
			{Name: "x", Type: Int, Access: AccessPrivate},
			{Name: "names", Type: ArrayOf(String), Access: AccessPublic},
			{Name: "count", Type: Int, Static: true, Access: AccessPackage},
		},
		Methods: []*Method{
			{Name: ConstructorName, Return: Void, Access: AccessPublic,
				MaxLocals: 1, Code: []Instr{{Op: OpReturn}}},
			{Name: "work", Params: []Type{Int}, Return: Int, Access: AccessPublic,
				MaxLocals: 2,
				Handlers:  []TryHandler{{Start: 0, End: 2, Target: 2, CatchClass: ThrowableClass}},
				Code: []Instr{
					{Op: OpLoad, A: 1},
					{Op: OpReturnValue},
					{Op: OpPop},
					{Op: OpConstInt, A: -1},
					{Op: OpReturnValue},
				}},
			{Name: "nat", Return: Void, Native: true, Access: AccessPublic},
		},
	}
}

// The member filters yield the declared members of their kind in order,
// and allocate nothing doing it.
func TestMemberFilters(t *testing.T) {
	c := sampleClass()
	c.Methods = append(c.Methods,
		&Method{Name: StaticInitName, Static: true, Return: Void},
		&Method{Name: "s", Static: true, Return: Void})
	var names []string
	walk := func() {
		names = names[:0]
		for f := range c.InstanceFields() {
			names = append(names, f.Name)
		}
		for f := range c.StaticFields() {
			names = append(names, f.Name)
		}
		for m := range c.Constructors() {
			names = append(names, m.Name)
		}
		for m := range c.InstanceMethods() {
			names = append(names, m.Name)
		}
		for m := range c.StaticMethods() {
			names = append(names, m.Name)
		}
	}
	walk()
	if got, want := strings.Join(names, " "), "x names count <init> work nat s"; got != want {
		t.Fatalf("filters yield %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(10, walk); n != 0 {
		t.Errorf("member filters allocate %.0f per walk, want 0", n)
	}
}

func TestProgramBasics(t *testing.T) {
	p := NewProgram()
	c := sampleClass()
	if err := p.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(c); err == nil {
		t.Fatal("duplicate add must fail")
	}
	if !p.Has("demo.Sample") || p.Len() != 1 {
		t.Fatal("basic lookups broken")
	}
	p.Remove("demo.Sample")
	if p.Has("demo.Sample") || p.Len() != 0 {
		t.Fatal("remove broken")
	}
}

func TestResolveThroughHierarchy(t *testing.T) {
	p := NewProgram()
	p.MustAdd(&Class{Name: ObjectClass, Special: true})
	p.MustAdd(&Class{
		Name: "Base", Super: ObjectClass,
		Fields:  []Field{{Name: "b", Type: Int}},
		Methods: []*Method{{Name: "m", Return: Void, Code: []Instr{{Op: OpReturn}}}},
	})
	p.MustAdd(&Class{Name: "Derived", Super: "Base"})

	dc, dm, err := p.ResolveMethod("Derived", "m", 0)
	if err != nil || dc.Name != "Base" || dm.Name != "m" {
		t.Fatalf("resolve method: %v %v %v", dc, dm, err)
	}
	fc, ff, err := p.ResolveField("Derived", "b")
	if err != nil || fc.Name != "Base" || ff.Name != "b" {
		t.Fatalf("resolve field: %v %v %v", fc, ff, err)
	}
	if !p.IsSubclassOf("Derived", ObjectClass) {
		t.Fatal("subclass chain broken")
	}
	if p.IsSubclassOf("Base", "Derived") {
		t.Fatal("reversed subclass relation")
	}
}

func TestImplementsViaInterfaceExtension(t *testing.T) {
	p := NewProgram()
	p.MustAdd(&Class{Name: ObjectClass, Special: true})
	p.MustAdd(&Class{Name: "I", IsInterface: true, Abstract: true})
	p.MustAdd(&Class{Name: "J", IsInterface: true, Abstract: true, Interfaces: []string{"I"}})
	p.MustAdd(&Class{Name: "C", Super: ObjectClass, Interfaces: []string{"J"}})
	p.MustAdd(&Class{Name: "D", Super: "C"})

	for _, tc := range []struct {
		class, iface string
		want         bool
	}{
		{"C", "J", true}, {"C", "I", true}, {"D", "I", true},
		{"C", "C", false}, {"D", "Missing", false},
	} {
		if got := p.Implements(tc.class, tc.iface); got != tc.want {
			t.Errorf("Implements(%s,%s)=%v want %v", tc.class, tc.iface, got, tc.want)
		}
	}
	if !p.AssignableTo("D", ObjectClass) || !p.AssignableTo("D", "I") {
		t.Fatal("assignability broken")
	}
}

// TestChainWalksBoundedAndAllocationFree: hierarchy walks are on the VM's
// link path and the verifier's per-instruction path; they must not
// allocate on ordinary hierarchies, and malformed cyclic ones — superclass
// loops, interfaces extending themselves twice over — must terminate with
// "not found" rather than spin.
func TestChainWalksBoundedAndAllocationFree(t *testing.T) {
	p := NewProgram()
	p.MustAdd(&Class{Name: ObjectClass, Special: true})
	p.MustAdd(&Class{Name: "I", IsInterface: true, Abstract: true,
		Methods: []*Method{{Name: "im", Return: Void, Abstract: true}}})
	p.MustAdd(&Class{Name: "J", IsInterface: true, Abstract: true, Interfaces: []string{"I"}})
	p.MustAdd(&Class{Name: "Base", Super: ObjectClass, Interfaces: []string{"J"},
		Fields:  []Field{{Name: "b", Type: Int}},
		Methods: []*Method{{Name: "m", Return: Void, Code: []Instr{{Op: OpReturn}}}}})
	p.MustAdd(&Class{Name: "Derived", Super: "Base"})
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := p.ResolveMethod("Derived", "m", 0); err != nil {
			t.Fatal(err)
		}
		if dc, _, err := p.ResolveMethod("Derived", "im", 0); err != nil || dc.Name != "I" {
			t.Fatal(dc, err)
		}
		if _, _, err := p.ResolveField("Derived", "b"); err != nil {
			t.Fatal(err)
		}
		if !p.IsSubclassOf("Derived", ObjectClass) || !p.Implements("Derived", "I") || !p.AssignableTo("Derived", "J") {
			t.Fatal("hierarchy broken")
		}
	}); n != 0 {
		t.Fatalf("hierarchy walks allocate %.1f times per round, want 0", n)
	}

	// More interfaces than the walk's in-frame set holds.
	wide := &Class{Name: "Wide", Super: ObjectClass}
	for i := 0; i < 40; i++ {
		name := "W" + string(rune('A'+i))
		p.MustAdd(&Class{Name: name, IsInterface: true, Interfaces: []string{"I"}})
		wide.Interfaces = append(wide.Interfaces, name, name)
	}
	p.MustAdd(wide)
	if !p.Implements("Wide", "Wh") || p.Implements("Wide", "Missing") {
		t.Fatal("wide interface list")
	}

	c := NewProgram()
	c.MustAdd(&Class{Name: "A", Super: "B", Interfaces: []string{"X"}})
	c.MustAdd(&Class{Name: "B", Super: "A", Interfaces: []string{"Y"}})
	c.MustAdd(&Class{Name: "X", IsInterface: true, Interfaces: []string{"Y", "Y", "X"}})
	c.MustAdd(&Class{Name: "Y", IsInterface: true, Interfaces: []string{"X", "X", "Y"}})
	if c.IsSubclassOf("A", "Z") || c.Implements("A", "Z") || c.AssignableTo("B", "Z") {
		t.Fatal("found Z in a hierarchy that has none")
	}
	if !c.IsSubclassOf("A", "B") || !c.Implements("A", "Y") {
		t.Fatal("cycle guard hides what the walk does reach")
	}
	if _, _, err := c.ResolveMethod("A", "m", 0); err == nil {
		t.Fatal("resolved a method nobody declares")
	}
	if _, _, err := c.ResolveField("A", "f"); err == nil {
		t.Fatal("resolved a field nobody declares")
	}
}

func TestReferencedClasses(t *testing.T) {
	c := sampleClass()
	c.Methods = append(c.Methods, &Method{
		Name: "refs", Return: Void, Access: AccessPublic, MaxLocals: 1,
		Code: []Instr{
			{Op: OpNew, Owner: "other.Made"},
			{Op: OpPop},
			{Op: OpConstNull, TypeRef: &Type{Kind: KindRef, Name: "other.Nulled"}},
			{Op: OpPop},
			{Op: OpReturn},
		},
	})
	seen := map[string]bool{}
	c.VisitReferences(func(name string) { seen[name] = true })
	delete(seen, c.Name)
	var got []string
	for n := range seen {
		got = append(got, n)
	}
	sort.Strings(got)
	want := []string{"demo.Iface", "other.Made", "other.Nulled", ObjectClass, ThrowableClass}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("referenced = %v want %v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { c.VisitReferences(func(string) {}) }); n != 0 {
		t.Errorf("VisitReferences allocates %.0f per walk, want 0", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProgram()
	p.MustAdd(sampleClass())
	q := p.Clone()
	qc := q.Class("demo.Sample")
	qc.Fields[0].Name = "mutated"
	qc.Methods[1].Code[0].A = 999
	orig := p.Class("demo.Sample")
	if orig.Fields[0].Name != "x" {
		t.Fatal("clone shares fields")
	}
	if orig.Methods[1].Code[0].A != 1 {
		t.Fatal("clone shares code")
	}
}

// A copied class is sealed: each of its slices has its length as its
// capacity, so an append to one cannot write into another.
func TestCloneClassSealed(t *testing.T) {
	c := &Class{
		Name:       "K",
		Super:      ObjectClass,
		Interfaces: make([]string, 1, 4),
		Fields:     make([]Field, 1, 4),
		Methods: []*Method{{
			Name:     "m",
			Params:   make([]Type, 1, 4),
			Code:     make([]Instr, 2, 8),
			Handlers: make([]TryHandler, 1, 4),
		}},
	}
	n := CloneClass(c)
	m := n.Methods[0]
	for what, lc := range map[string][2]int{
		"Interfaces": {len(n.Interfaces), cap(n.Interfaces)},
		"Fields":     {len(n.Fields), cap(n.Fields)},
		"Methods":    {len(n.Methods), cap(n.Methods)},
		"Params":     {len(m.Params), cap(m.Params)},
		"Code":       {len(m.Code), cap(m.Code)},
		"Handlers":   {len(m.Handlers), cap(m.Handlers)},
	} {
		if lc[0] != lc[1] {
			t.Errorf("clone's %s: len %d, cap %d", what, lc[0], lc[1])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := NewProgram()
	p.MustAdd(&Class{Name: ObjectClass, Special: true})
	p.MustAdd(sampleClass())
	var buf bytes.Buffer
	if err := EncodeProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.SortedNames(), q.SortedNames()) {
		t.Fatalf("names differ")
	}
	a, b := p.Class("demo.Sample"), q.Class("demo.Sample")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("class round trip:\n%+v\n%+v", a, b)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram(bytes.NewReader([]byte("not an archive"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeProgram(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestCodeBuilderLabels(t *testing.T) {
	b := NewCodeBuilder()
	b.ConstBool(true)
	b.JumpIfNot("end") // forward reference
	b.ConstInt(1)
	b.Store(0)
	b.Label("loop")
	b.Load(0)
	b.ConstInt(10)
	b.Op(OpCmpLt)
	b.JumpIfNot("end")
	b.Load(0)
	b.ConstInt(1)
	b.Op(OpAdd)
	b.Store(0)
	b.Jump("loop") // backward reference
	b.Label("end")
	b.Return()
	code, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// All jump targets resolved and in range.
	for pc, in := range code {
		if in.IsJump() {
			if in.A < 0 || in.A > int64(len(code)) {
				t.Fatalf("pc %d: unresolved target %d", pc, in.A)
			}
		}
	}
	if b.MaxLocals() != 1 {
		t.Fatalf("max locals %d", b.MaxLocals())
	}
}

func TestCodeBuilderUnresolvedLabel(t *testing.T) {
	b := NewCodeBuilder()
	b.Jump("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("unresolved label accepted")
	}
}

func TestPrintShapes(t *testing.T) {
	c := sampleClass()
	flat := Sprint(c, PrintOptions{})
	if !strings.Contains(flat, "class demo.Sample implements demo.Iface") {
		t.Fatalf("header missing:\n%s", flat)
	}
	if strings.Contains(flat, "0:") {
		t.Fatal("flat print leaked code")
	}
	full := Sprint(c, PrintOptions{Code: true})
	if !strings.Contains(full, "load 1") || !strings.Contains(full, "try [0,2) catch sys.Throwable -> 2") {
		t.Fatalf("full print missing code:\n%s", full)
	}
	iface := &Class{Name: "I", IsInterface: true, Abstract: true}
	if !strings.Contains(Sprint(iface, PrintOptions{}), "interface I") {
		t.Fatal("interface print broken")
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"const.i 42":          {Op: OpConstInt, A: 42},
		"const.s \"hi\"":      {Op: OpConstString, Str: "hi"},
		"getfield X.f":        {Op: OpGetField, Owner: "X", Member: "f"},
		"invokevirtual X.m/2": {Op: OpInvokeVirtual, Owner: "X", Member: "m", NArgs: 2},
		"jump @7":             {Op: OpJump, A: 7},
		"new X":               {Op: OpNew, Owner: "X"},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("%v prints %q want %q", in.Op, got, want)
		}
	}
}

func TestProgramMissingReferences(t *testing.T) {
	p := NewProgram()
	p.MustAdd(&Class{Name: ObjectClass, Special: true})
	p.MustAdd(&Class{
		Name: "Lonely", Super: ObjectClass,
		Fields: []Field{{Name: "f", Type: Ref("Ghost")}},
	})
	missing := p.MissingReferences()
	if len(missing) != 2 { // Ghost and ThrowableClass... no: only Ghost
		if !(len(missing) == 1 && missing[0] == "Ghost") {
			t.Fatalf("missing = %v", missing)
		}
	}
}

// TestRewrite: jumps and handler ranges follow the instructions they
// named past inserted and dropped ones, and a target outside the body is
// an error.
func TestRewrite(t *testing.T) {
	code := []Instr{
		{Op: OpConstInt, A: 1},  // 0: dropped
		{Op: OpNew, Owner: "A"}, // 1: becomes new; dup
		{Op: OpPop},             // 2
		{Op: OpJump, A: 2},      // 3
		{Op: OpReturn},          // 4
	}
	handlers := []TryHandler{{Start: 1, End: 3, Target: 4, CatchClass: "E"}}
	fn := func(out []Instr, pc int, in Instr) ([]Instr, error) {
		switch in.Op {
		case OpConstInt:
			return out, nil
		case OpNew:
			return append(out, in, Instr{Op: OpDup}), nil
		}
		return append(out, in), nil
	}
	out, hs, err := Rewrite(code, handlers, fn)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{OpNew, OpDup, OpPop, OpJump, OpReturn}
	for i, in := range out {
		if in.Op != want[i] {
			t.Fatalf("pc %d: %v, want %v", i, in.Op, want[i])
		}
	}
	if len(out) != len(want) || out[3].A != 2 {
		t.Fatalf("rewritten %v", out)
	}
	if h := hs[0]; h != (TryHandler{Start: 0, End: 3, Target: 4, CatchClass: "E"}) {
		t.Fatalf("handler %+v", h)
	}

	code[3].A = 99
	if _, _, err := Rewrite(code, handlers, fn); err == nil || err.Error() != "jump target 99 out of range" {
		t.Fatalf("jump past the body: %v", err)
	}
	code[3].A = 2
	if _, _, err := Rewrite(code, []TryHandler{{Start: 0, End: 9, Target: 4}}, fn); err == nil {
		t.Fatal("handler past the body rewrote")
	}
}

// A Rewriter reused from body to body returns what Rewrite returns, each
// body and handler table exactly as long as its contents and not
// sharing the Rewriter's buffer, and once warm allocates only those.
func TestRewriterReuse(t *testing.T) {
	double := func(out []Instr, _ int, in Instr) ([]Instr, error) {
		if in.Op == OpPop {
			return append(out, in, in), nil
		}
		return append(out, in), nil
	}
	long := []Instr{{Op: OpPop}, {Op: OpPop}, {Op: OpJump, A: 3}, {Op: OpReturn}}
	short := []Instr{{Op: OpPop}, {Op: OpReturn}}
	handlers := []TryHandler{{Start: 0, End: 1, Target: 1}}
	var r Rewriter
	first, _, err := r.Rewrite(long, nil, double)
	if err != nil {
		t.Fatal(err)
	}
	second, hs, err := r.Rewrite(short, handlers, double)
	if err != nil {
		t.Fatal(err)
	}
	want, wantH, _ := Rewrite(short, handlers, double)
	if !reflect.DeepEqual(second, want) || !reflect.DeepEqual(hs, wantH) {
		t.Fatalf("reused rewriter gave %v %v, want %v %v", second, hs, want, wantH)
	}
	if first[0].Op != OpPop || first[4].A != 5 || len(first) != 6 {
		t.Fatalf("the second body changed the first: %v", first)
	}
	for name, lc := range map[string][2]int{"first": {len(first), cap(first)}, "second": {len(second), cap(second)}, "handlers": {len(hs), cap(hs)}} {
		if lc[0] != lc[1] {
			t.Errorf("%s: len %d, cap %d", name, lc[0], lc[1])
		}
	}
	if n := testing.AllocsPerRun(10, func() { r.Rewrite(long, handlers, double) }); n != 2 {
		t.Errorf("a warm Rewriter allocates %.0f per body, want 2 (body, handlers)", n)
	}
}
