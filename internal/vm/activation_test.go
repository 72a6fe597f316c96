package vm_test

import (
	"testing"

	"rafda/internal/minijava"
	"rafda/internal/transform"
	"rafda/internal/vm"
)

// bankSource is the benchmark's app.local program: one step() makes 65
// transfers between Account objects, each a withdraw and a deposit that
// the transformation routes through an _O_Int interface and get_/set_
// accessors — 200 method activations, the accessors run at their call
// sites without one.
const bankSource = `
class Account {
    int balance;
    Account(int opening) { this.balance = opening; }
    void deposit(int n) { balance = balance + n; }
    void withdraw(int n) { balance = balance - n; }
}
class Driver {
    Account a; Account b; Account c; Account d;
    int salt;
    Driver(int salt) {
        this.salt = salt;
        this.a = new Account(1000); this.b = new Account(1000);
        this.c = new Account(1000); this.d = new Account(1000);
    }
    void move(Account from, Account to, int n) { from.withdraw(n); to.deposit(n); }
    int step() {
        Account scratch = new Account(0);
        for (int i = 0; i < 16; i = i + 1) {
            int n = (salt + i) % 7 + 1;
            move(a, b, n); move(b, scratch, n); move(scratch, c, n); move(c, d, n);
        }
        move(d, a, 16);
        salt = salt + 1;
        return a.balance + b.balance + c.balance + d.balance + scratch.balance;
    }
}
class Setup {
    static Driver make(int seed) { return new Driver(seed); }
    static Account account() { return new Account(7); }
}
class Main { static void main() {} }`

// counterSource: tally's loop reads and writes a field of this, which
// the transformation turns into a get_n and a set_n call per iteration.
const counterSource = `
class Counter {
    int n;
    int tally(int k) { for (int i = 0; i < k; i = i + 1) { n = n + 1; } return n; }
}
class Setup { static Counter make() { return new Counter(); } }
class Main { static void main() {} }`

// local builds the transformed program src on a VM the way the
// benchmark's vm probe does: BindLocal after vm.New.
func local(tb testing.TB, src string) *vm.VM {
	tb.Helper()
	prog, err := minijava.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := transform.Transform(prog, transform.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := vm.New(res.Program)
	if err != nil {
		tb.Fatal(err)
	}
	transform.BindLocal(m, res)
	return m
}

func make1(tb testing.TB, m *vm.VM, method string, args ...vm.Value) vm.Value {
	tb.Helper()
	obj, err := m.Invoke(transform.CFactory("Setup"), method, vm.Value{}, args)
	if err != nil {
		tb.Fatal(err)
	}
	return obj
}

// stepper returns a function running one verified Driver.step().
func stepper(tb testing.TB) func() {
	m := local(tb, bankSource)
	driver := make1(tb, m, "make", vm.IntV(3))
	class := driver.O.ClassName()
	return func() {
		got, err := m.Invoke(class, "step", driver, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if got.I != 4000 {
			tb.Fatalf("step() = %d, want the conserved total 4000", got.I)
		}
	}
}

// accessorPair returns a function doing one set_balance/get_balance pair
// on an Account through the entry point a node dispatch uses.
func accessorPair(tb testing.TB) func() {
	m := local(tb, bankSource)
	acct := make1(tb, m, "account")
	class := acct.O.ClassName()
	get, set := transform.Getter("balance"), transform.Setter("balance")
	args := []vm.Value{vm.IntV(0)}
	n := int64(0)
	return func() {
		n++
		args[0].I = n
		m.Exec(func(env *vm.Env) {
			if _, thrown, err := env.Call(class, set, acct, args); thrown != nil || err != nil {
				tb.Fatal(thrown, err)
			}
			got, thrown, err := env.Call(class, get, acct, nil)
			if thrown != nil || err != nil || got.I != n {
				tb.Fatalf("get after set(%d) = %v (%v, %v)", n, got, thrown, err)
			}
		})
	}
}

func BenchmarkActivationAccessor(b *testing.B) {
	pair := accessorPair(b)
	pair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}

// BenchmarkAccessorSite: the interpreted caller's side of
// BenchmarkActivationAccessor — get_n/set_n reached from call sites in a
// loop, which run them without an activation.  One op is one tally of
// sitePairs iterations.
func BenchmarkAccessorSite(b *testing.B) {
	const sitePairs = 64
	m := local(b, counterSource)
	counter := make1(b, m, "make")
	class := counter.O.ClassName()
	args := []vm.Value{vm.IntV(sitePairs)}
	tally := func() int64 {
		got, err := m.Invoke(class, "tally", counter, args)
		if err != nil {
			b.Fatal(err)
		}
		return got.I
	}
	start := tally()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tally()
	}
	b.StopTimer()
	if got, want := tally(), start+int64(b.N+1)*sitePairs; got != want {
		b.Fatalf("tally reached %d, want %d", got, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sitePairs), "ns/pair")
}

// TestAccessorSiteBank: what step() writes through accessors run at
// their call sites is what a by-name accessor, which activates, reads
// back, and the bank's total is conserved step after step.
func TestAccessorSiteBank(t *testing.T) {
	m := local(t, bankSource)
	driver := make1(t, m, "make", vm.IntV(3))
	class := driver.O.ClassName()
	for i := 0; i < 5; i++ {
		if got, err := m.Invoke(class, "step", driver, nil); err != nil || got.I != 4000 {
			t.Fatalf("step %d = %v %v, want the conserved total 4000", i, got, err)
		}
	}
	if got, err := m.Invoke(class, transform.Getter("salt"), driver, nil); err != nil || got.I != 3+5 {
		t.Fatalf("get_salt after five steps = %v %v, want 8", got, err)
	}
}

func BenchmarkBankStep(b *testing.B) {
	step := stepper(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestAllocPinBankStep: a steady-state step() of the transformed local
// program allocates only what the program itself asks for: the scratch
// Account, header and slot in one allocation — no frames, no argument
// vectors, no resolution, no class name built by its factory.  It
// allocated 925 times before frames moved onto the slab, and 3 while the
// factory concatenated its class name and the slots were apart.
func TestAllocPinBankStep(t *testing.T) {
	step := stepper(t)
	step()
	if n := testing.AllocsPerRun(200, step); n != 1 {
		t.Fatalf("step() allocates %.1f times, want 1", n)
	}
}

// TestAllocPinAccessorPair: activating a getter and a setter by name
// allocates nothing.
func TestAllocPinAccessorPair(t *testing.T) {
	pair := accessorPair(t)
	pair()
	if n := testing.AllocsPerRun(1000, pair); n != 0 {
		t.Fatalf("accessor pair allocates %.1f times, want 0", n)
	}
}
