package rafda

import (
	"bytes"
	"strings"
	"testing"
)

const apiDemoSource = `
class Greeter {
    string prefix;
    Greeter(string p) { this.prefix = p; }
    string greet(string who) { return prefix + ", " + who + "!"; }
}
class Main {
    static void main() {
        Greeter g = new Greeter("Hello");
        sys.System.println(g.greet("world"));
    }
}`

func TestPublicPipeline(t *testing.T) {
	prog, err := CompileString(apiDemoSource)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !prog.Has("Greeter") || !prog.Has("Main") {
		t.Fatal("classes missing")
	}
	if errs := prog.Verify(); len(errs) > 0 {
		t.Fatalf("verify: %v", errs)
	}
	var out bytes.Buffer
	if err := prog.Run("Main", &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != "Hello, world!\n" {
		t.Fatalf("output %q", out.String())
	}

	a := prog.Analyze()
	if !a.Transformable("Greeter") {
		t.Fatalf("Greeter: %s", a.Why("Greeter"))
	}
	if a.Transformable("sys.Object") {
		t.Fatal("sys.Object transformable")
	}
	if why := a.Why("sys.Object"); !strings.Contains(why, "system") {
		t.Fatalf("why(sys.Object)=%q", why)
	}
	st := a.Stats()
	if st.Total == 0 || st.Transformable == 0 {
		t.Fatalf("stats: %+v", st)
	}

	tr, err := prog.Transform()
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	tp := tr.Program()
	for _, want := range []string{"Greeter_O_Int", "Greeter_O_Local", "Greeter_O_Proxy", "Greeter_C_Proxy", "Greeter_O_Factory"} {
		if !tp.Has(want) {
			t.Errorf("missing %s", want)
		}
	}
	if errs := tp.Verify(); len(errs) > 0 {
		t.Fatalf("transformed verify: %v", errs)
	}
	var tout bytes.Buffer
	if err := tr.RunLocal("Main", &tout); err != nil {
		t.Fatalf("run local: %v", err)
	}
	if tout.String() != out.String() {
		t.Fatalf("transformed output %q want %q", tout.String(), out.String())
	}
}

func TestPublicEncodeDecode(t *testing.T) {
	prog, err := CompileString(apiDemoSource)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back.Classes()) != len(prog.Classes()) {
		t.Fatalf("class count mismatch")
	}
	var out bytes.Buffer
	if err := back.Run("Main", &out); err != nil {
		t.Fatalf("run decoded: %v", err)
	}
	if out.String() != "Hello, world!\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestPublicDisassemble(t *testing.T) {
	prog, _ := CompileString(apiDemoSource)
	txt, err := prog.Disassemble("Greeter", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "class Greeter") || !strings.Contains(txt, "greet") {
		t.Fatalf("disassembly:\n%s", txt)
	}
	if _, err := prog.Disassemble("Nope", false); err == nil {
		t.Fatal("expected error for unknown class")
	}
}

func TestPublicDistribution(t *testing.T) {
	prog, err := CompileString(`
class Service {
    int hits;
    Service() { this.hits = 0; }
    int ping() { hits = hits + 1; return hits; }
}
class Main {
    static int touch() {
        Service s = new Service();
        return s.ping() + s.ping();
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform()
	if err != nil {
		t.Fatal(err)
	}
	server, err := tr.NewNode(NodeConfig{Name: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ep, err := server.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	client, err := tr.NewNode(NodeConfig{Name: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Serve("rrp", ""); err != nil {
		t.Fatal(err)
	}
	if err := client.PlaceClass("Service", ep); err != nil {
		t.Fatal(err)
	}
	got, err := client.Call("Main", "touch")
	if err != nil {
		t.Fatal(err)
	}
	if got.(int64) != 3 {
		t.Fatalf("touch=%v want 3", got)
	}
	if server.Stats().Creates != 1 {
		t.Fatalf("server stats: %+v", server.Stats())
	}
	// Revert placement.
	if err := client.PlaceClass("Service", "local"); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Call("Main", "touch"); err != nil || got.(int64) != 3 {
		t.Fatalf("local touch: %v %v", got, err)
	}
	if server.Stats().Creates != 1 {
		t.Fatal("local placement still created remotely")
	}
}

// TestPublicPlaceDefault: a remote default sends the new of a class
// with no rule of its own to the default endpoint, a class rule
// overrides the default, and a local default makes creation local again.
func TestPublicPlaceDefault(t *testing.T) {
	prog, err := CompileString(`
class Service {
    int hits;
    int ping() { hits = hits + 1; return hits; }
}
class Other {
    int hits;
    int ping() { hits = hits + 1; return hits; }
}
class Main {
    static int useService() { Service s = new Service(); return s.ping() + s.ping(); }
    static int useOther() { Other o = new Other(); return o.ping() + o.ping(); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform()
	if err != nil {
		t.Fatal(err)
	}
	server, err := tr.NewNode(NodeConfig{Name: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ep, err := server.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	client, err := tr.NewNode(NodeConfig{Name: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Serve("rrp", ""); err != nil {
		t.Fatal(err)
	}
	// Main keeps a rule of its own so its statics run at the client.
	if err := client.PlaceClass("Main", "local"); err != nil {
		t.Fatal(err)
	}
	call := func(method string, wantCreates uint64) {
		t.Helper()
		if got, err := client.Call("Main", method); err != nil || got.(int64) != 3 {
			t.Fatalf("%s = %v, %v; want 3", method, got, err)
		}
		if got := server.Stats().Creates; got != wantCreates {
			t.Fatalf("after %s the server created %d objects, want %d", method, got, wantCreates)
		}
	}
	if err := client.PlaceDefault(ep); err != nil {
		t.Fatal(err)
	}
	call("useOther", 1)
	if err := client.PlaceClass("Service", "local"); err != nil {
		t.Fatal(err)
	}
	call("useService", 1)
	if err := client.PlaceDefault("local"); err != nil {
		t.Fatal(err)
	}
	call("useOther", 1)
}

func TestPublicMigration(t *testing.T) {
	prog, err := CompileString(`
class Counter {
    int n;
    Counter(int n) { this.n = n; }
    int bump() { n = n + 1; return n; }
}
class Keeper {
    static Counter held = new Counter(40);
    static int poke() { return held.bump(); }
}
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform()
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.NewNode(NodeConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bNode, err := tr.NewNode(NodeConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer bNode.Close()
	epB, err := bNode.Serve("rrp", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Serve("rrp", ""); err != nil {
		t.Fatal(err)
	}

	if got, _ := a.Call("Keeper", "poke"); got.(int64) != 41 {
		t.Fatalf("pre-migration poke=%v", got)
	}
	href, err := a.ReadStatic("Keeper", "held")
	if err != nil {
		t.Fatal(err)
	}
	ref := href.(*Ref)
	if err := a.Migrate(ref, epB); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !strings.HasSuffix(ref.ClassName(), "_O_Proxy") {
		t.Fatalf("handle did not morph: %s", ref.ClassName())
	}
	if got, _ := a.Call("Keeper", "poke"); got.(int64) != 42 {
		t.Fatalf("post-migration poke=%v", got)
	}
	if bNode.Stats().MigrationsIn != 1 {
		t.Fatalf("b stats: %+v", bNode.Stats())
	}
}

func TestValueConversion(t *testing.T) {
	prog, err := CompileString(`
class Echo {
    static int addInt(int a, int b) { return a + b; }
    static float addFloat(float a, float b) { return a + b; }
    static bool both(bool a, bool b) { return a && b; }
    static string cat(string a, string b) { return a + b; }
}
class Main { static void main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Transform()
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.NewNode(NodeConfig{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got, err := n.Call("Echo", "addInt", 2, int64(40)); err != nil || got.(int64) != 42 {
		t.Fatalf("addInt: %v %v", got, err)
	}
	if got, err := n.Call("Echo", "addFloat", 1.5, 2.25); err != nil || got.(float64) != 3.75 {
		t.Fatalf("addFloat: %v %v", got, err)
	}
	if got, err := n.Call("Echo", "both", true, true); err != nil || got.(bool) != true {
		t.Fatalf("both: %v %v", got, err)
	}
	if got, err := n.Call("Echo", "cat", "a", "b"); err != nil || got.(string) != "ab" {
		t.Fatalf("cat: %v %v", got, err)
	}
	if _, err := n.Call("Echo", "addInt", 2, struct{}{}); err == nil {
		t.Fatal("expected conversion error")
	}
}
