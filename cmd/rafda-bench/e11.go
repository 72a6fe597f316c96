package main

import (
	"fmt"
	"runtime"
	"time"

	"rafda/internal/netsim"
	"rafda/internal/transport"
	"rafda/internal/wire"
)

// ----- E11: pooled-transport saturation -----

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
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`

	BaselineCallsPerSec float64 `json:"baseline_calls_per_sec"`
	BestCallsPerSec     float64 `json:"best_calls_per_sec"`
	BestPool            int     `json:"best_pool"`
	CeilingLift         float64 `json:"ceiling_lift"`

	Results []E11Result `json:"results"`
}

// e11Config carries the -e11-* flag values.
type e11Config struct {
	parallel int
	minLift  float64
}

// poolDriver adapts one endpoint of a sharded ClientCache to the Client
// interface the throughput harness drives.  The empty affinity key
// round-robins calls across the pool's shards — the saturation shape,
// where every shard carries load.
type poolDriver struct {
	cc *transport.ClientCache
	ep string
}

func (d poolDriver) Call(req *wire.Request) (*wire.Response, error) {
	return d.cc.CallKey(d.ep, "", req)
}

func (d poolDriver) Close() error { return nil }

// e11 measures the single-socket ceiling E7 left in place: one
// multiplexed connection pipelines any number of calls, but every frame
// funnels through that connection's writer/reader goroutine pair.  The
// experiment sweeps the per-endpoint pool width 1→8 at parallelism 64
// (echo workload, raw loopback and simulated LAN) and records how far
// sharding the connection lifts the calls/s ceiling over the pool=1
// baseline — the E7 single-socket configuration.  The lift needs real
// cores: on a 1-core host one writer pair already saturates the CPU, so
// -e11-min-lift is only enforced where it is set (the multicore CI
// job), and the JSON records gomaxprocs and num_cpu alongside the rows.
func e11(cfg e11Config, out string) error {
	echo := func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Result: wire.Value{Kind: wire.KInt, Int: 42}}
	}
	networks := []struct {
		name    string
		profile netsim.Profile
	}{
		{"loopback", netsim.Profile{}},
		{"lan", netsim.Profile{Latency: 100 * time.Microsecond, BandwidthBps: 1e9, Seed: 1}},
	}
	pools := []int{1, 2, 4, 8}
	report := E11Report{
		Experiment: "e11",
		Description: "pooled-transport saturation: sharded per-endpoint connection pools vs the " +
			"single-socket baseline, echo workload at parallelism 64",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	fmt.Printf("concurrent echo calls over a sharded connection pool (GOMAXPROCS=%d, %d CPUs)\n",
		report.GoMaxProcs, report.NumCPU)
	fmt.Printf("  %-9s %5s %3s %12s %12s\n", "network", "pool", "p", "calls/s", "ns/op")
	rate := map[string]float64{}
	for _, nw := range networks {
		tr := transport.NewRRP(transport.Options{Profile: nw.profile})
		srv, err := tr.Listen("", echo)
		if err != nil {
			return err
		}
		for _, pool := range pools {
			cc := transport.NewClientCachePool(transport.NewRegistry(tr), pool)
			bench := poolDriver{cc: cc, ep: srv.Endpoint()}
			calls := 6000
			if nw.name == "lan" && cfg.parallel == 1 {
				calls = 500
			}
			// Warm every shard (round-robin reaches all of them) and the
			// frame pools outside the measurement.
			if _, err := measureThroughput(bench, false, cfg.parallel, 64*pool); err != nil {
				cc.Close()
				srv.Close()
				return err
			}
			res, err := measureThroughput(bench, false, cfg.parallel, calls)
			cc.Close()
			if err != nil {
				srv.Close()
				return err
			}
			row := E11Result{
				Network:     nw.name,
				Pool:        pool,
				Parallelism: cfg.parallel,
				Calls:       calls,
				CallsPerSec: res.CallsPerSec,
				NsPerOp:     res.NsPerOp,
			}
			report.Results = append(report.Results, row)
			rate[fmt.Sprintf("%s/%d", nw.name, pool)] = res.CallsPerSec
			fmt.Printf("  %-9s %5d %3d %12.0f %12.0f\n",
				nw.name, pool, cfg.parallel, res.CallsPerSec, res.NsPerOp)
		}
		srv.Close()
	}

	report.BaselineCallsPerSec = rate["lan/1"]
	for _, pool := range pools {
		if r := rate[fmt.Sprintf("lan/%d", pool)]; r > report.BestCallsPerSec {
			report.BestCallsPerSec = r
			report.BestPool = pool
		}
	}
	if report.BaselineCallsPerSec > 0 {
		report.CeilingLift = report.BestCallsPerSec / report.BaselineCallsPerSec
	}
	fmt.Printf("\nsim-LAN ceiling at parallelism %d: pool=%d reaches %.0f calls/s, %.2fx the single-socket %.0f\n",
		cfg.parallel, report.BestPool, report.BestCallsPerSec, report.CeilingLift, report.BaselineCallsPerSec)
	if cfg.minLift > 0 && report.CeilingLift < cfg.minLift {
		return fmt.Errorf("pool lift %.2fx is below the %.2fx bar (gomaxprocs=%d, %d CPUs)",
			report.CeilingLift, cfg.minLift, report.GoMaxProcs, report.NumCPU)
	}

	return writeReport(out, "e11", report)
}
