package main

import (
	"fmt"
	"sync"

	"rafda/internal/minijava"
	"rafda/internal/node"
	"rafda/internal/transform"
	"rafda/internal/vm"
)

// e8Source is the E8 workload: slowDeposit() blocks 200µs between heap
// accesses via the sys.Clock.sleepMicros native — per-call blocking
// work (I/O, device time) that cannot release the VM because it sits
// between a field read and a field write.  deposit(0) reads a balance.
const e8Source = `
class Account {
    int balance;
    Account(int b) { this.balance = b; }
    int deposit(int x) { balance = balance + x; return balance; }
    int slowDeposit(int x) {
        sys.Clock.sleepMicros(200);
        balance = balance + x;
        return balance;
    }
}
class Mk {
    static Account make() { return new Account(0); }
}
class Main { static void main() {} }`

// E8Result is one row of the machine-readable intra-node parallelism
// record, BENCH_E8.json.
type E8Result struct {
	Mode        string  `json:"mode"`   // coarse | sharded
	Target      string  `json:"target"` // distinct | shared
	Parallelism int     `json:"parallelism"`
	Calls       int     `json:"calls"`
	CallsPerSec float64 `json:"calls_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// E8Report is the top-level BENCH_E8.json document.
type E8Report struct {
	header
	Results []E8Result `json:"results"`
}

// E8's acceptance bars at parallelism 64, sharded over coarse calls/s:
// blocking calls on distinct objects overlap, and calls on one shared
// object do not — its gate is a monitor, so a gate bypass would read up
// to 64x on the second bar.
const (
	e8MinDistinctLift = 3.0
	e8MaxSharedRatio  = 1.5
)

// e8Node builds one single node over the E8 workload holding objects
// fresh accounts.
func e8Node(objects int) (*node.Node, []vm.Value, error) {
	prog, err := minijava.Compile(e8Source)
	if err != nil {
		return nil, nil, err
	}
	res, err := transform.Transform(prog, transform.Options{})
	if err != nil {
		return nil, nil, err
	}
	n, err := node.New(node.Config{Name: "e8", Result: res})
	if err != nil {
		return nil, nil, err
	}
	refs := make([]vm.Value, objects)
	for i := range refs {
		if refs[i], err = n.InvokeStatic("Mk", "make"); err != nil {
			n.Close()
			return nil, nil, err
		}
	}
	return n, refs, nil
}

// e8Balance sums the accounts' balances.
func e8Balance(n *node.Node, refs []vm.Value) (int64, error) {
	var sum int64
	for _, ref := range refs {
		v, err := n.CallOn(ref, "deposit", vm.IntV(0))
		if err != nil {
			return 0, err
		}
		sum += v.I
	}
	return sum, nil
}

// e8Measure drives slowDeposit(1) calls, goroutine g on refs[g%len(refs)].
// The coarse arm is the baseline: one driver-side lock held around
// every call, which is what a single VM-wide lock amounts to for calls
// that never leave the node.  No call may be lost: the balances must
// grow by exactly the calls made.
func e8Measure(n *node.Node, refs []vm.Value, coarse bool, l load) (driven, error) {
	before, err := e8Balance(n, refs)
	if err != nil {
		return driven{}, err
	}
	var vmLock sync.Mutex
	arg := []vm.Value{vm.IntV(1)}
	d, err := drive(l, func(g int) error {
		if coarse {
			vmLock.Lock()
			defer vmLock.Unlock()
		}
		_, err := n.CallOn(refs[g%len(refs)], "slowDeposit", arg...)
		return err
	})
	if err != nil {
		return d, err
	}
	after, err := e8Balance(n, refs)
	if err == nil && after-before != d.calls {
		err = fmt.Errorf("lost updates: balances grew by %d over %d calls", after-before, d.calls)
	}
	return d, err
}

// e8Verdict holds the sweep's calls/s, keyed mode/target/p<parallelism>,
// to E8's bars.
func e8Verdict(rate map[string]float64) error {
	lift := rate["sharded/distinct/p64"] / rate["coarse/distinct/p64"]
	shared := rate["sharded/shared/p64"] / rate["coarse/shared/p64"]
	fmt.Printf("\ndistinct-objects speedup at parallelism 64: %.1fx (bar >= %.0fx)\n", lift, e8MinDistinctLift)
	fmt.Printf("shared-object ratio at parallelism 64: %.1fx (bar <= %.1fx: sharding must NOT speed this up)\n",
		shared, e8MaxSharedRatio)
	if lift < e8MinDistinctLift {
		return fmt.Errorf("sharded/distinct/p64 is %.1fx coarse/distinct/p64, below the %.0fx bar", lift, e8MinDistinctLift)
	}
	if shared > e8MaxSharedRatio {
		return fmt.Errorf("sharded/shared/p64 is %.1fx coarse/shared/p64, above the %.1fx bar: calls on one object overlapped",
			shared, e8MaxSharedRatio)
	}
	return nil
}

// e8 measures intra-node invocation throughput under concurrency: the
// sharded per-object locking vs one coarse lock around every call, against
// distinct vs one shared target object, at parallelism 1, 8 and 64.
// Every call blocks inside the VM, work a coarse lock can never overlap
// whatever the core count, so the ratios do not depend on the host.
func e8(_ profile, out string) error {
	report := E8Report{header: newHeader("e8")}
	fmt.Printf("concurrent blocking intra-node invocations (GOMAXPROCS=%d)\n", report.GoMaxProcs)
	fmt.Printf("  %-8s %-9s %3s %12s %12s\n", "mode", "target", "p", "calls/s", "ns/op")
	rate := map[string]float64{}
	for _, mode := range []string{"coarse", "sharded"} {
		for _, target := range []string{"distinct", "shared"} {
			for _, parallel := range []int{1, 8, 64} {
				objects := 1
				if target == "distinct" {
					objects = parallel
				}
				n, refs, err := e8Node(objects)
				if err != nil {
					return err
				}
				// Only sharded+distinct scales, so the serial
				// configurations get a small budget.
				calls := 300
				if mode == "sharded" && target == "distinct" && parallel > 1 {
					calls = min(300*parallel, 3000)
				}
				coarse := mode == "coarse"
				// Warm-up outside the measurement.
				_, err = e8Measure(n, refs, coarse, load{parallel: parallel, calls: 2*parallel + 16})
				var d driven
				if err == nil {
					d, err = e8Measure(n, refs, coarse, load{parallel: parallel, calls: calls})
				}
				n.Close()
				if err != nil {
					return err
				}
				res := E8Result{Mode: mode, Target: target, Parallelism: parallel,
					Calls: calls, CallsPerSec: d.perSec(), NsPerOp: d.nsPerOp()}
				report.Results = append(report.Results, res)
				rate[fmt.Sprintf("%s/%s/p%d", mode, target, parallel)] = res.CallsPerSec
				fmt.Printf("  %-8s %-9s %3d %12.0f %12.0f\n", mode, target, parallel, res.CallsPerSec, res.NsPerOp)
			}
		}
	}
	if err := e8Verdict(rate); err != nil {
		return err
	}
	return writeReport(out, "e8", report)
}
