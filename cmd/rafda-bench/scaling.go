package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rafda/internal/minijava"
	"rafda/internal/netsim"
	"rafda/internal/node"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// echoNetworks are the links the E7/E11 wire echo runs over.
var echoNetworks = []struct {
	name    string
	profile netsim.Profile
}{
	{"loopback", netsim.Profile{}},
	{"lan", netsim.Profile{Latency: 100 * time.Microsecond, BandwidthBps: 1e9, Seed: 1}},
}

// echoHandler answers every E7/E11 request with 42.
func echoHandler(req *wire.Request) *wire.Response {
	return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 42}}
}

// echoCalls drives add(20, 22) requests through call.  serialized is
// the lock-step baseline: one lock held around each call, so at most
// one is in flight — what the transport did before it multiplexed.
func echoCalls(call func(*wire.Request) (*wire.Response, error), serialized bool, l load) (driven, error) {
	req := &wire.Request{ID: 1, Op: wire.OpInvoke, GUID: "g", Method: "add",
		Args: []wire.Value{{Kind: wire.KInt, Int: 20}, {Kind: wire.KInt, Int: 22}}}
	var oneAtATime sync.Mutex
	return drive(l, func(int) error {
		if serialized {
			oneAtATime.Lock()
			defer oneAtATime.Unlock()
		}
		resp, err := call(req)
		if err != nil {
			return err
		}
		if resp.Result.Int != 42 {
			return fmt.Errorf("bad echo %+v", resp)
		}
		return nil
	})
}

// E7Result is one row of the machine-readable concurrency-throughput
// record, tracked across PRs in BENCH_E7.json.
type E7Result struct {
	Protocol    string  `json:"protocol"`
	Network     string  `json:"network"`
	Mode        string  `json:"mode"`
	Parallelism int     `json:"parallelism"`
	Calls       int     `json:"calls"`
	CallsPerSec float64 `json:"calls_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// E7Report is the top-level BENCH_E7.json document.
type E7Report struct {
	header
	Results []E7Result `json:"results"`
}

// e7 measures RRP node-to-node throughput under concurrency: the
// multiplexed transport vs the lock-step baseline, at parallelism 1, 8
// and 64, on the raw loopback and under simulated LAN conditions.
func e7(_ profile, out string) error {
	report := E7Report{header: newHeader("e7")}
	fmt.Println("concurrent echo calls over one shared RRP connection")
	fmt.Printf("  %-9s %-12s %3s %12s %12s %10s\n", "network", "mode", "p", "calls/s", "ns/op", "allocs/op")
	rate := map[string]float64{}
	for _, nw := range echoNetworks {
		tr := transport.NewRRP(transport.Options{Profile: nw.profile})
		srv, err := tr.Listen("", echoHandler)
		if err != nil {
			return err
		}
		for _, mode := range []string{"serialized", "multiplexed"} {
			for _, parallel := range []int{1, 8, 64} {
				client, err := tr.Dial(srv.Endpoint())
				if err != nil {
					srv.Close()
					return err
				}
				serialized := mode == "serialized"
				calls := 4000
				if nw.name == "lan" && (serialized || parallel == 1) {
					calls = 500 // latency-bound: don't wait all day for the baseline
				}
				// Warm up connections and pools outside the measurement.
				_, err = echoCalls(client.Call, serialized, load{parallel: parallel, calls: 50})
				var d driven
				if err == nil {
					runtime.GC()
					d, err = echoCalls(client.Call, serialized, load{parallel: parallel, calls: calls})
				}
				client.Close()
				if err != nil {
					srv.Close()
					return err
				}
				res := E7Result{Protocol: "rrp", Network: nw.name, Mode: mode, Parallelism: parallel, Calls: calls,
					CallsPerSec: d.perSec(), NsPerOp: d.nsPerOp(), AllocsPerOp: float64(d.allocs) / float64(calls)}
				report.Results = append(report.Results, res)
				rate[fmt.Sprintf("%s/%s/%d", nw.name, mode, parallel)] = res.CallsPerSec
				fmt.Printf("  %-9s %-12s %3d %12.0f %12.0f %10.1f\n",
					nw.name, mode, parallel, res.CallsPerSec, res.NsPerOp, res.AllocsPerOp)
			}
		}
		srv.Close()
	}
	for _, nw := range echoNetworks {
		base, mux := rate[nw.name+"/serialized/64"], rate[nw.name+"/multiplexed/64"]
		fmt.Printf("\n%s speedup at parallelism 64: %.1fx (multiplexed %0.f vs lock-step %0.f calls/s)\n",
			nw.name, mux/base, mux, base)
	}
	return writeReport(out, "e7", report)
}

// e8Source is the E8 workload: deposit() is pure bytecode, slowDeposit()
// blocks 200µs between heap accesses via the sys.Clock.sleepMicros
// native — per-call blocking work (I/O, device time) that cannot
// release the VM because it sits between a field read and a field
// write.
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
// record, tracked across PRs in BENCH_E8.json.
type E8Result struct {
	Workload    string  `json:"workload"` // cpu | block
	Mode        string  `json:"mode"`     // coarse | sharded
	Target      string  `json:"target"`   // distinct | shared
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

// e8Workloads pair each E8 workload with the method it calls.
var e8Workloads = []struct{ name, method string }{{"cpu", "deposit"}, {"block", "slowDeposit"}}

// e8Node builds one single node over the E8 workload holding objects
// fresh accounts.
func e8Node(objects int) (*node.Node, []vm.Value, error) {
	prog, err := minijava.Compile(e8Source)
	if err != nil {
		return nil, nil, err
	}
	res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
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

// e8Measure drives method(1) calls, goroutine g on refs[g%len(refs)].
// The coarse arm is the baseline: one driver-side lock held around
// every call, which is what a single VM-wide lock amounts to for calls
// that never leave the node.  No call may be lost: the balances must
// grow by exactly the calls made.
func e8Measure(n *node.Node, refs []vm.Value, method string, coarse bool, l load) (driven, error) {
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
		_, err := n.CallOn(refs[g%len(refs)], method, arg...)
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

// e8 measures intra-node invocation throughput under concurrency: the
// sharded per-object locking vs one coarse lock around every call, against
// distinct vs one shared target object, at parallelism 1, 8 and 64.
// The "block" workload is the headline (blocking work a coarse lock can
// never overlap); the "cpu" workload shows GOMAXPROCS-bound scaling on
// multicore hosts.
func e8(_ profile, out string) error {
	report := E8Report{header: newHeader("e8")}
	fmt.Printf("concurrent intra-node invocations (GOMAXPROCS=%d)\n", report.GoMaxProcs)
	fmt.Printf("  %-6s %-8s %-9s %3s %12s %12s\n", "work", "mode", "target", "p", "calls/s", "ns/op")
	rate := map[string]float64{}
	for _, wl := range e8Workloads {
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
					calls := 4000
					if wl.name == "block" {
						// Blocking workload: only sharded+distinct scales,
						// so budget the serial configurations down.
						calls = 300
						if mode == "sharded" && target == "distinct" && parallel > 1 {
							calls = min(300*parallel, 3000)
						}
					}
					coarse := mode == "coarse"
					// Warm-up outside the measurement.
					_, err = e8Measure(n, refs, wl.method, coarse, load{parallel: parallel, calls: 2*parallel + 16})
					var d driven
					if err == nil {
						d, err = e8Measure(n, refs, wl.method, coarse, load{parallel: parallel, calls: calls})
					}
					n.Close()
					if err != nil {
						return err
					}
					res := E8Result{Workload: wl.name, Mode: mode, Target: target, Parallelism: parallel,
						Calls: calls, CallsPerSec: d.perSec(), NsPerOp: d.nsPerOp()}
					report.Results = append(report.Results, res)
					rate[fmt.Sprintf("%s/%s/%s/%d", wl.name, mode, target, parallel)] = res.CallsPerSec
					fmt.Printf("  %-6s %-8s %-9s %3d %12.0f %12.0f\n",
						wl.name, mode, target, parallel, res.CallsPerSec, res.NsPerOp)
				}
			}
		}
	}
	for _, wl := range e8Workloads {
		base, shard := rate[wl.name+"/coarse/distinct/64"], rate[wl.name+"/sharded/distinct/64"]
		fmt.Printf("\n%s distinct-objects speedup at parallelism 64: %.1fx (sharded %.0f vs coarse %.0f calls/s)\n",
			wl.name, shard/base, shard, base)
		fmt.Printf("%s shared-object ratio at parallelism 64: %.1fx (monitor semantics: sharding must NOT speed this up)\n",
			wl.name, rate[wl.name+"/sharded/shared/64"]/rate[wl.name+"/coarse/shared/64"])
	}
	return writeReport(out, "e8", report)
}

// E11Result is one row of the machine-readable pooled-transport
// saturation record, tracked across PRs in BENCH_E11.json.
type E11Result struct {
	Network     string  `json:"network"`
	Pool        int     `json:"pool"`
	Parallelism int     `json:"parallelism"`
	Calls       int     `json:"calls"`
	CallsPerSec float64 `json:"calls_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// E11Report is the top-level BENCH_E11.json document.  Baseline is the
// pool=1 row — the E7 single-socket configuration — and CeilingLift is
// how far the best pool width raises the sim-LAN p=64 calls/s ceiling
// above it.
type E11Report struct {
	header

	BaselineCallsPerSec float64 `json:"baseline_calls_per_sec"`
	BestCallsPerSec     float64 `json:"best_calls_per_sec"`
	BestPool            int     `json:"best_pool"`
	CeilingLift         float64 `json:"ceiling_lift"`

	Results []E11Result `json:"results"`
}

const (
	e11Parallel = 64
	// e11MinLift is the pooled-over-single-socket bar, enforced from
	// e11LiftProcs GOMAXPROCS up: with fewer cores one writer/reader
	// pair already saturates the CPU and there is nothing to lift.
	e11MinLift   = 1.5
	e11LiftProcs = 4
)

// e11 measures the single-socket ceiling E7 left in place: one
// multiplexed connection pipelines any number of calls, but every frame
// funnels through that connection's writer/reader goroutine pair.  The
// experiment sweeps the per-endpoint pool width 1→8 at parallelism 64
// (echo workload, raw loopback and simulated LAN) and records how far
// sharding the connection lifts the calls/s ceiling over the pool=1
// baseline.  The empty affinity key round-robins calls across the
// pool's shards — the saturation shape, where every shard carries load.
func e11(_ profile, out string) error {
	pools := []int{1, 2, 4, 8}
	report := E11Report{header: newHeader("e11")}
	fmt.Printf("concurrent echo calls over a sharded connection pool (GOMAXPROCS=%d, %d CPUs)\n",
		report.GoMaxProcs, report.NumCPU)
	fmt.Printf("  %-9s %5s %3s %12s %12s\n", "network", "pool", "p", "calls/s", "ns/op")
	for _, nw := range echoNetworks {
		tr := transport.NewRRP(transport.Options{Profile: nw.profile})
		srv, err := tr.Listen("", echoHandler)
		if err != nil {
			return err
		}
		for _, pool := range pools {
			cc := transport.NewClientCachePool(transport.NewRegistry(tr), pool)
			call := func(req *wire.Request) (*wire.Response, error) { return cc.CallKey(srv.Endpoint(), "", req) }
			const calls = 6000
			// Warm every shard (round-robin reaches all of them) and the
			// frame pools outside the measurement.
			_, err := echoCalls(call, false, load{parallel: e11Parallel, calls: 64 * pool})
			var d driven
			if err == nil {
				runtime.GC()
				d, err = echoCalls(call, false, load{parallel: e11Parallel, calls: calls})
			}
			cc.Close()
			if err != nil {
				srv.Close()
				return err
			}
			row := E11Result{Network: nw.name, Pool: pool, Parallelism: e11Parallel, Calls: calls,
				CallsPerSec: d.perSec(), NsPerOp: d.nsPerOp()}
			report.Results = append(report.Results, row)
			if nw.name == "lan" {
				if pool == 1 {
					report.BaselineCallsPerSec = row.CallsPerSec
				}
				if row.CallsPerSec > report.BestCallsPerSec {
					report.BestCallsPerSec, report.BestPool = row.CallsPerSec, pool
				}
			}
			fmt.Printf("  %-9s %5d %3d %12.0f %12.0f\n", nw.name, pool, e11Parallel, row.CallsPerSec, row.NsPerOp)
		}
		srv.Close()
	}
	report.CeilingLift = report.BestCallsPerSec / report.BaselineCallsPerSec
	fmt.Printf("\nsim-LAN ceiling at parallelism %d: pool=%d reaches %.0f calls/s, %.2fx the single-socket %.0f\n",
		e11Parallel, report.BestPool, report.BestCallsPerSec, report.CeilingLift, report.BaselineCallsPerSec)
	if report.GoMaxProcs >= e11LiftProcs && report.CeilingLift < e11MinLift {
		return fmt.Errorf("pool lift %.2fx is below the %.2fx bar (gomaxprocs=%d, %d CPUs)",
			report.CeilingLift, e11MinLift, report.GoMaxProcs, report.NumCPU)
	}
	return writeReport(out, "e11", report)
}
