package main

// E13 — read-replication of a hot object.
//
// One read-hot object, three cluster nodes over the simulated LAN.
// Phase A measures the single-home deployment: the object lives on its
// home node and two caller nodes hammer a read-only method through
// their proxies, every read paying the LAN round trip.  Phase B
// replicates the object to both caller nodes (home stays the
// lease-holding primary) and re-measures: the proxy read path resolves
// the local replica through the cluster directory and reads collapse to
// same-address-space calls, so aggregate read throughput should scale
// near-linearly with replica count.  The experiment then performs one
// write through a caller's proxy — it serialises at the primary, bumps
// the epoch and fans out to every copy before acknowledging — and
// asserts both callers immediately read the new value (no stale window
// after the ack; docs/REPLICATION.md).
//
// Key row (gate): read_lift — replicated / single-home aggregate
// reads/s, machine-independent.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rafda"
)

const e13Source = `
class Hot {
    private int v;
    Hot(int v0) { this.v = v0; }
    int get() { return v; }
    int set(int x) { this.v = x; return x; }
}
class Setup {
    static Hot obj = new Hot(41);
    static Hot get() { return obj; }
}
class Main { static void main() {} }`

type e13Config struct {
	heartbeat time.Duration
	phase     time.Duration
	parallel  int // caller goroutines per reader node
	minLift   float64
	pool      int
}

// E13Report is the top-level BENCH_E13.json document.
type E13Report struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Parallel    int    `json:"parallelism_per_reader"`
	Heartbeat   string `json:"cluster_heartbeat"`
	Replicas    int    `json:"replicas"` // copies incl. the primary

	SingleHomeReadsPerSec float64 `json:"single_home_reads_per_sec"`
	ReplicatedReadsPerSec float64 `json:"replicated_reads_per_sec"`
	ReadLift              float64 `json:"read_lift"`

	WriteVisibleImmediately bool `json:"write_visible_immediately"`

	SingleHomeBuckets []E9Bucket `json:"single_home_buckets"`
	ReplicatedBuckets []E9Bucket `json:"replicated_buckets"`
}

// e13Drive hammers ref's read method from parallel goroutines on every
// reader simultaneously and samples aggregate throughput into 100ms
// buckets.
func e13Drive(nodes []*rafda.Node, refs []*rafda.Ref, parallel int, phase time.Duration) ([]E9Bucket, error) {
	var calls atomic.Int64
	errs := make(chan error, len(nodes)*parallel)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, n := range nodes {
		ref := refs[i]
		for g := 0; g < parallel; g++ {
			wg.Add(1)
			go func(n *rafda.Node, ref *rafda.Ref) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := n.CallOn(ref, "get"); err != nil {
						errs <- err
						return
					}
					calls.Add(1)
				}
			}(n, ref)
		}
	}
	const bucket = 100 * time.Millisecond
	var buckets []E9Bucket
	start := time.Now()
	prev := int64(0)
	tick := time.NewTicker(bucket)
	for time.Since(start) < phase {
		<-tick.C
		cur := calls.Load()
		buckets = append(buckets, E9Bucket{
			OffsetMs:    time.Since(start).Milliseconds(),
			CallsPerSec: float64(cur-prev) / bucket.Seconds(),
		})
		prev = cur
	}
	tick.Stop()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return buckets, nil
}

// e13LocalRead probes whether n currently serves a read of ref without
// leaving the address space (the replica route has landed): one call,
// checked against the node's outbound-call counter.
func e13LocalRead(n *rafda.Node, ref *rafda.Ref) (bool, error) {
	before := n.Stats().RemoteCallsOut
	if _, err := n.CallOn(ref, "get"); err != nil {
		return false, err
	}
	return n.Stats().RemoteCallsOut == before, nil
}

func e13(cfg e13Config, out string) error {
	report := E13Report{
		Experiment: "e13",
		Description: "read replication: one read-hot object, 3-node cluster; reads route to local " +
			"replicas while writes serialise through the lease-holding primary",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Parallel:   cfg.parallel,
		Heartbeat:  cfg.heartbeat.String(),
		Replicas:   3,
	}
	prog, err := rafda.CompileString(e13Source)
	if err != nil {
		return err
	}
	tr, err := prog.Transform(rafda.WithProtocols("rrp"))
	if err != nil {
		return err
	}

	home, epHome, err := e10Node(tr, "home", cfg.pool)
	if err != nil {
		return err
	}
	defer home.Close()
	readerA, epA, err := e10Node(tr, "reader-a", cfg.pool)
	if err != nil {
		return err
	}
	defer readerA.Close()
	readerB, epB, err := e10Node(tr, "reader-b", cfg.pool)
	if err != nil {
		return err
	}
	defer readerB.Close()

	ccfg := func(seeds ...string) rafda.ClusterConfig {
		return rafda.ClusterConfig{Seeds: seeds, Heartbeat: cfg.heartbeat, Fanout: 3}
	}
	clHome, err := home.JoinCluster(ccfg())
	if err != nil {
		return err
	}
	clA, err := readerA.JoinCluster(ccfg(epHome))
	if err != nil {
		return err
	}
	clB, err := readerB.JoinCluster(ccfg(epHome, epA))
	if err != nil {
		return err
	}
	clHome.Start()
	clA.Start()
	clB.Start()
	defer func() { clHome.Stop(); clA.Stop(); clB.Stop() }()

	// The hot object materialises at its home (Setup's class init runs
	// there); each reader resolves the same instance into a proxy.
	hot, err := home.Call("Setup", "get")
	if err != nil {
		return err
	}
	homeRef := hot.(*rafda.Ref)
	for _, r := range []*rafda.Node{readerA, readerB} {
		if err := r.PlaceClass("Setup", epHome); err != nil {
			return err
		}
	}
	ra, err := readerA.Call("Setup", "get")
	if err != nil {
		return err
	}
	rb, err := readerB.Call("Setup", "get")
	if err != nil {
		return err
	}
	readers := []*rafda.Node{readerA, readerB}
	refs := []*rafda.Ref{ra.(*rafda.Ref), rb.(*rafda.Ref)}

	// Phase A — single home: every read from the readers is a LAN
	// round trip to the primary.
	buckets, err := e13Drive(readers, refs, cfg.parallel, cfg.phase)
	if err != nil {
		return err
	}
	if len(buckets) < 6 {
		return fmt.Errorf("phase too short: %d buckets (raise -e13-seconds)", len(buckets))
	}
	report.SingleHomeBuckets = buckets
	report.SingleHomeReadsPerSec = tailMean(buckets)

	// Replicate to both readers; the home stays the lease-holding
	// primary.  Wait for the replica routes to reach the readers
	// through gossip before re-measuring.
	if err := home.Replicate(homeRef, epA, epB); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	deadline := time.Now().Add(50 * cfg.heartbeat)
	for {
		okA, err := e13LocalRead(readerA, refs[0])
		if err != nil {
			return err
		}
		okB, err := e13LocalRead(readerB, refs[1])
		if err != nil {
			return err
		}
		if okA && okB {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica routes did not reach the readers within %v", 50*cfg.heartbeat)
		}
		time.Sleep(cfg.heartbeat)
	}

	// Phase B — replicated: reads collapse to the local copies.
	buckets, err = e13Drive(readers, refs, cfg.parallel, cfg.phase)
	if err != nil {
		return err
	}
	if len(buckets) < 6 {
		return fmt.Errorf("phase too short: %d buckets (raise -e13-seconds)", len(buckets))
	}
	report.ReplicatedBuckets = buckets
	report.ReplicatedReadsPerSec = tailMean(buckets)
	report.ReadLift = report.ReplicatedReadsPerSec / report.SingleHomeReadsPerSec

	// Write-visibility coda: a write through a reader's proxy
	// serialises at the primary and must update every copy before it
	// acknowledges — both readers' very next reads see the new value.
	if _, err := readerA.CallOn(refs[0], "set", 1234); err != nil {
		return fmt.Errorf("write through replica proxy: %w", err)
	}
	report.WriteVisibleImmediately = true
	for i, r := range readers {
		got, err := r.CallOn(refs[i], "get")
		if err != nil {
			return err
		}
		if got != int64(1234) {
			report.WriteVisibleImmediately = false
			return fmt.Errorf("reader %d read %v immediately after the acked write, want 1234 (stale replica)", i, got)
		}
	}

	fmt.Printf("read replication, %d readers x %d callers over simulated LAN (heartbeat %v)\n\n",
		len(readers), cfg.parallel, cfg.heartbeat)
	fmt.Printf("  %-34s %12.0f reads/s\n", "single home (all reads remote)", report.SingleHomeReadsPerSec)
	fmt.Printf("  %-34s %12.0f reads/s  (%.1fx)\n", "replicated x3 (reads local)",
		report.ReplicatedReadsPerSec, report.ReadLift)
	fmt.Printf("  %-34s %12v\n", "write visible immediately", report.WriteVisibleImmediately)

	if report.ReadLift < cfg.minLift {
		return fmt.Errorf("read lift %.2fx below the %.1fx bar", report.ReadLift, cfg.minLift)
	}
	fmt.Printf("\nreplicated reads scale: %.1fx the single-home ceiling with 3 copies, "+
		"writes still serialise through the primary\n", report.ReadLift)

	return writeReport(out, "e13", report)
}
