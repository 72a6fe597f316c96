package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rafda"
)

// header opens every BENCH record.
type header struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
}

// newHeader describes experiment id and the host it runs on.
func newHeader(id string) header {
	return header{
		Experiment:  id,
		Description: lookup(id).desc,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
}

// reportPath names experiment id's BENCH record in dir.
func reportPath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+strings.ToUpper(id)+".json")
}

// writeReport writes experiment id's record into dir; the empty dir
// writes nothing.
func writeReport(dir, id string, report any) error {
	if dir == "" {
		return nil
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := reportPath(dir, id)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nmachine-readable results written to %s\n", path)
	return nil
}

// Bucket is one 100 ms throughput sample of a timed drive.
type Bucket struct {
	OffsetMs    int64   `json:"offset_ms"`
	CallsPerSec float64 `json:"calls_per_sec"`
}

// load is one closed-loop run: parallel callers making calls until
// calls have completed or, when calls is 0, for phase.
type load struct {
	parallel int
	calls    int
	phase    time.Duration
}

// driven is what one drive measured.
type driven struct {
	calls   int64
	wall    time.Duration
	cpu     time.Duration // process user+system time
	allocs  uint64
	buckets []Bucket // timed drives only
}

func (d driven) perSec() float64 { return float64(d.calls) / d.wall.Seconds() }

func (d driven) nsPerOp() float64 { return float64(d.wall.Nanoseconds()) / float64(d.calls) }

func (d driven) perCall() time.Duration { return d.wall / time.Duration(d.calls) }

// drive is the one closed-loop driver: l.parallel goroutines call
// call(g), g being the goroutine's index, each waiting for its call
// before making the next.  A timed drive samples throughput into 100 ms
// buckets.  The first error stops every caller and is returned.
func drive(l load, call func(g int) error) (driven, error) {
	const bucket = 100 * time.Millisecond
	var next, done atomic.Int64
	var stop atomic.Bool
	errs := make(chan error, l.parallel)
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuNow()
	start := time.Now()
	for g := 0; g < l.parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && (l.calls == 0 || next.Add(1) <= int64(l.calls)) {
				if err := call(g); err != nil {
					errs <- err
					stop.Store(true)
					return
				}
				done.Add(1)
			}
		}()
	}
	var d driven
	if l.calls == 0 {
		tick := time.NewTicker(bucket)
		for prev := int64(0); time.Since(start) < l.phase; {
			<-tick.C
			cur := done.Load()
			d.buckets = append(d.buckets, Bucket{
				OffsetMs:    time.Since(start).Milliseconds(),
				CallsPerSec: float64(cur-prev) / bucket.Seconds(),
			})
			prev = cur
		}
		tick.Stop()
		stop.Store(true)
	}
	wg.Wait()
	d.wall = time.Since(start)
	d.cpu = cpuNow() - cpu0
	runtime.ReadMemStats(&ms1)
	d.calls = done.Load()
	d.allocs = ms1.Mallocs - ms0.Mallocs
	select {
	case err := <-errs:
		return d, err
	default:
	}
	return d, nil
}

// cpuNow reads the process's consumed CPU time (user+system).  Unlike
// wall clock, CPU time is immune to what the rest of the host is doing
// — on a contended runner it is the only stable base for a small-ratio
// comparison.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pctile returns the q-quantile (nearest rank) of sorted, 0 when empty.
func pctile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailMean is the mean calls/sec of the last third of a phase's
// buckets — the steady-state statistic the timed phases are scored by,
// so warm-up transients cancel out of their ratios.
func tailMean(buckets []Bucket) float64 {
	tail := buckets[len(buckets)-len(buckets)/3:]
	var sum float64
	for _, b := range tail {
		sum += b.CallsPerSec
	}
	return sum / float64(len(tail))
}

// timedPhase drives a timed phase and insists it was long enough for
// tailMean to mean something.
func timedPhase(l load, call func(g int) error) ([]Bucket, error) {
	d, err := drive(l, call)
	if err != nil {
		return nil, err
	}
	if len(d.buckets) < 6 {
		return nil, fmt.Errorf("phase too short: %d buckets (the profile's phase wants >= 600ms)", len(d.buckets))
	}
	return d.buckets, nil
}

// transformed compiles and transforms src.
func transformed(src string) (*rafda.Transformed, error) {
	prog, err := rafda.CompileString(src)
	if err != nil {
		return nil, err
	}
	return prog.Transform()
}

// deploy builds one node per config over tr, each serving proto, and
// returns the nodes, their endpoints and a function closing them all.
func deploy(tr *rafda.Transformed, proto string, cfgs ...rafda.NodeConfig) ([]*rafda.Node, []string, func(), error) {
	var nodes []*rafda.Node
	var eps []string
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	for _, cfg := range cfgs {
		n, err := tr.NewNode(cfg)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		nodes = append(nodes, n)
		ep, err := n.Serve(proto, "")
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		eps = append(eps, ep)
	}
	return nodes, eps, closeAll, nil
}

// remotePair deploys a server and a client over proto on net and, when
// class is not empty, places class on the server.
func remotePair(tr *rafda.Transformed, proto, class string, net rafda.NetProfile) (client, server *rafda.Node, closeAll func(), err error) {
	nodes, eps, closeAll, err := deploy(tr, proto,
		rafda.NodeConfig{Name: "server", Network: net}, rafda.NodeConfig{Name: "client", Network: net})
	if err != nil {
		return nil, nil, nil, err
	}
	if class != "" {
		if err := nodes[1].PlaceClass(class, eps[0]); err != nil {
			closeAll()
			return nil, nil, nil, err
		}
	}
	return nodes[1], nodes[0], closeAll, nil
}

// chaosNet is the E12/E14 fault schedule over the simulated LAN: 30‰
// of frames delivered twice, 3‰ swallowed (the link then torn down),
// 3‰ killed mid-flight.  The first writes of every connection are
// exempt so dial-time traffic cannot be starved outright — chaos is
// meant to exercise retries, not to make the workload undeliverable.
func chaosNet(seed uint64) rafda.NetProfile {
	p := rafda.NetLAN
	p.Faults = &rafda.NetFaults{
		Seed:            seed,
		DupPerMille:     chaosDup,
		DropPerMille:    chaosDrop,
		KillPerMille:    chaosKill,
		FirstSafeWrites: 4,
	}
	return p
}

const (
	chaosDup  = 30
	chaosDrop = 3
	chaosKill = 3
)
