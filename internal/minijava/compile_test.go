package minijava

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/vm"
)

// run compiles src, runs Main.main(), and returns captured output.
func run(t *testing.T, src string) string {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	machine := vm.MustNew(prog, vm.WithOutput(&out))
	if err := machine.RunMain("Main"); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

func expectOut(t *testing.T, src, want string) {
	t.Helper()
	got := run(t, src)
	if got != want {
		t.Fatalf("output mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestHelloWorld(t *testing.T) {
	expectOut(t, `
class Main {
    static void main() {
        sys.System.println("hello, world");
    }
}`, "hello, world\n")
}

func TestArithmeticAndLocals(t *testing.T) {
	expectOut(t, `
class Main {
    static void main() {
        int a = 6;
        int b = 7;
        int c = a * b;
        sys.System.println("c=" + c);
        sys.System.println("div=" + (c / 4) + " rem=" + (c % 4));
        float f = 1.5;
        f = f * 2.0 + a;
        sys.System.println("f=" + f);
        bool p = a < b && c == 42;
        sys.System.println("p=" + p);
    }
}`, "c=42\ndiv=10 rem=2\nf=9\np=true\n")
}

func TestControlFlow(t *testing.T) {
	expectOut(t, `
class Main {
    static void main() {
        int sum = 0;
        for (int i = 0; i < 10; i = i + 1) {
            if (i % 2 == 0) { continue; }
            if (i == 9) { break; }
            sum = sum + i;
        }
        sys.System.println("sum=" + sum);
        int n = 3;
        while (n > 0) {
            sys.System.println("n=" + n);
            n = n - 1;
        }
    }
}`, "sum=16\nn=3\nn=2\nn=1\n")
}

func TestObjectsFieldsMethods(t *testing.T) {
	expectOut(t, `
class Point {
    int x;
    int y;
    Point(int x, int y) { this.x = x; this.y = y; }
    int dist2() { return x * x + y * y; }
    void move(int dx, int dy) { x = x + dx; y = y + dy; }
}
class Main {
    static void main() {
        Point p = new Point(3, 4);
        sys.System.println("d2=" + p.dist2());
        p.move(1, 1);
        sys.System.println("x=" + p.x + " y=" + p.y);
    }
}`, "d2=25\nx=4 y=5\n")
}

func TestStaticsAndInitialisers(t *testing.T) {
	expectOut(t, `
class Counter {
    static int count = 100;
    int bump;
    Counter(int b) { this.bump = b; }
    static int next() { count = count + 1; return count; }
}
class Main {
    static void main() {
        sys.System.println("a=" + Counter.next());
        sys.System.println("b=" + Counter.next());
        Counter.count = 7;
        sys.System.println("c=" + Counter.count);
    }
}`, "a=101\nb=102\nc=7\n")
}

func TestInheritanceAndDispatch(t *testing.T) {
	expectOut(t, `
class Animal {
    string name;
    Animal(string n) { this.name = n; }
    string speak() { return name + " makes a sound"; }
}
class Dog extends Animal {
    Dog(string n) { super(n); }
    string speak() { return name + " barks"; }
}
class Main {
    static void main() {
        Animal a = new Animal("generic");
        Animal d = new Dog("rex");
        sys.System.println(a.speak());
        sys.System.println(d.speak());
        sys.System.println("is dog: " + (d instanceof Dog));
        sys.System.println("is animal: " + (d instanceof Animal));
    }
}`, "generic makes a sound\nrex barks\nis dog: true\nis animal: true\n")
}

func TestInterfaces(t *testing.T) {
	expectOut(t, `
interface Shape {
    float area();
}
class Square implements Shape {
    float side;
    Square(float s) { this.side = s; }
    float area() { return side * side; }
}
class Circle implements Shape {
    float r;
    Circle(float r) { this.r = r; }
    float area() { return 3.0 * r * r; }
}
class Main {
    static void main() {
        Shape[] shapes = new Shape[2];
        shapes[0] = new Square(2.0);
        shapes[1] = new Circle(1.0);
        float total = 0.0;
        for (int i = 0; i < shapes.length; i = i + 1) {
            total = total + shapes[i].area();
        }
        sys.System.println("total=" + total);
    }
}`, "total=7\n")
}

func TestArrays(t *testing.T) {
	expectOut(t, `
class Main {
    static void main() {
        int[] xs = new int[5];
        for (int i = 0; i < xs.length; i = i + 1) { xs[i] = i * i; }
        int sum = 0;
        for (int i = 0; i < xs.length; i = i + 1) { sum = sum + xs[i]; }
        sys.System.println("sum=" + sum);
        string[] ss = new string[2];
        ss[0] = "a"; ss[1] = "b";
        sys.System.println(ss[0] + ss[1]);
    }
}`, "sum=30\nab\n")
}

func TestExceptions(t *testing.T) {
	expectOut(t, `
class BankError extends sys.Exception {
    BankError(string m) { super(m); }
}
class Main {
    static int risky(int x) {
        if (x < 0) { throw new BankError("negative: " + x); }
        return 10 / x;
    }
    static void main() {
        try {
            sys.System.println("r=" + risky(2));
            sys.System.println("r=" + risky(-1));
        } catch (BankError e) {
            sys.System.println("caught: " + e.getMessage());
        }
        try {
            sys.System.println("r=" + risky(0));
        } catch (sys.ArithmeticException e) {
            sys.System.println("arith: " + e.getMessage());
        }
    }
}`, "r=5\ncaught: negative: -1\narith: division by zero\n")
}

func TestNullHandling(t *testing.T) {
	expectOut(t, `
class Box { int v; Box(int v) { this.v = v; } }
class Main {
    static void main() {
        Box b = null;
        sys.System.println("isnull=" + (b == null));
        try {
            sys.System.println("v=" + b.v);
        } catch (sys.NullPointerException e) {
            sys.System.println("npe");
        }
        b = new Box(9);
        sys.System.println("v=" + b.v);
    }
}`, "isnull=true\nnpe\nv=9\n")
}

func TestStringNatives(t *testing.T) {
	expectOut(t, `
class Main {
    static void main() {
        string s = "hello";
        sys.System.println("len=" + sys.Strings.length(s));
        sys.System.println("sub=" + sys.Strings.substring(s, 1, 4));
        sys.System.println("idx=" + sys.Strings.indexOf(s, "ll"));
        sys.System.println("parsed=" + (sys.Strings.parseInt("41") + 1));
    }
}`, "len=5\nsub=ell\nidx=2\nparsed=42\n")
}

func TestRecursion(t *testing.T) {
	expectOut(t, `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static void main() {
        sys.System.println("fib(15)=" + fib(15));
    }
}`, "fib(15)=610\n")
}

func TestCasts(t *testing.T) {
	expectOut(t, `
class A { int tag() { return 1; } }
class B extends A { int tag() { return 2; } int extra() { return 99; } }
class Main {
    static void main() {
        A a = new B();
        B b = (B) a;
        sys.System.println("extra=" + b.extra());
        sys.System.println("trunc=" + (int) 3.99);
        float f = (float) 7;
        sys.System.println("f=" + f);
        A plain = new A();
        try {
            B bad = (B) plain;
            sys.System.println("tag=" + bad.tag());
        } catch (sys.ClassCastException e) {
            sys.System.println("cce");
        }
    }
}`, "extra=99\ntrunc=3\nf=7\ncce\n")
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown type", `class Main { Foo f; }`, "unknown type"},
		{"undefined name", `class Main { static void main() { x = 1; } }`, "undefined name"},
		{"bad assign", `class Main { static void main() { int x = "s"; } }`, "cannot assign"},
		{"bad arity", `class A { int m(int x) { return x; } }
			class Main { static void main() { A a = new A(); a.m(1, 2); } }`, "no method"},
		{"dup class", `class A {} class A {}`, "duplicate class"},
		{"break outside", `class Main { static void main() { break; } }`, "break outside loop"},
		{"this static", `class Main { int f; static void main() { int x = this.f; } }`, "'this' in static"},
		{"throw nonthrowable", `class A {} class Main { static void main() { throw new A(); } }`, "throw requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestPaperFigure2Compiles(t *testing.T) {
	// The paper's Figure 2 sample class X (adapted to mini-java syntax).
	prog, err := Compile(`
class Y {
    static int K = 17;
    Y() {}
    int n(long j) { return (int) j + 1; }
}
class Z {
    int seed;
    Z(int seed) { this.seed = seed; }
    int q(int i) { return seed + i; }
}
class X {
    private Y y;
    X(Y y) { this.y = y; }
    protected int m(long j) { return y.n(j); }
    static final Z z = new Z(Y.K);
    static int p(int i) { return z.q(i); }
}
class Main {
    static void main() {
        X x = new X(new Y());
        sys.System.println("m=" + x.m(41));
        sys.System.println("p=" + X.p(3));
    }
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, name := range []string{"X", "Y", "Z", "Main"} {
		if !prog.Has(name) {
			t.Fatalf("missing class %s", name)
		}
	}
	var out bytes.Buffer
	machine := vm.MustNew(prog, vm.WithOutput(&out))
	if err := machine.RunMain("Main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := "m=42\np=20\n"
	if out.String() != want {
		t.Fatalf("got %q want %q", out.String(), want)
	}
}

// wideSource is one class of n static methods, each calling the next.
func wideSource(n int) string {
	var b strings.Builder
	b.WriteString("class Wide {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    static int m%d(int x) { if (x <= 0) { return %d; } return m%d(x - 1); }\n", i, i, (i+1)%n)
	}
	b.WriteString("}\nclass Main { static void main() {} }\n")
	return b.String()
}

// calls reports whether m invokes a method named callee.
func calls(m *ir.Method, callee string) bool {
	if m == nil {
		return false
	}
	for _, in := range m.Code {
		if in.Op == ir.OpInvokeStatic && in.Member == callee {
			return true
		}
	}
	return false
}

// TestWideClassCompilesLinearly: the checker and the code generator
// resolve each call in a class by name and arity without scanning the
// class's method list, so ten times the methods compile in about ten
// times the time.  A scan per call made 10,000 methods take ~40 times as
// long as 1,000; the bound leaves room for a noisy machine.
func TestWideClassCompilesLinearly(t *testing.T) {
	best := func(n int) time.Duration {
		src := wideSource(n)
		d := time.Duration(math.MaxInt64)
		for r := 0; r < 3; r++ {
			start := time.Now()
			prog, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			d = min(d, time.Since(start))
			if !calls(prog.Class("Wide").Method(fmt.Sprintf("m%d", n-1), 1), "m0") {
				t.Fatalf("m%d does not call m0", n-1)
			}
		}
		return d
	}
	narrow, wide := best(1000), best(10000)
	t.Logf("1,000 methods %v, 10,000 methods %v", narrow, wide)
	if wide > 20*narrow {
		t.Fatalf("10,000 methods took %.0f times as long as 1,000", float64(wide)/float64(narrow))
	}
}
