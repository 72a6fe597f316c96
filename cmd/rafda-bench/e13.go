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
// Acceptance: read_lift — replicated / single-home aggregate reads/s —
// must reach e13MinLift, which a replica read that went remote cannot,
// and the write must be visible at every copy the moment it acks.

import (
	"fmt"
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

// The E13 caller count per reader node and its acceptance bar.
const (
	e13Parallel = 4
	e13MinLift  = 2.0 // replicated / single-home aggregate reads/s
)

// E13Report is the top-level BENCH_E13.json document.
type E13Report struct {
	header
	Parallel  int    `json:"parallelism_per_reader"`
	Heartbeat string `json:"cluster_heartbeat"`
	Replicas  int    `json:"replicas"` // copies incl. the primary

	SingleHomeReadsPerSec float64 `json:"single_home_reads_per_sec"`
	ReplicatedReadsPerSec float64 `json:"replicated_reads_per_sec"`
	ReadLift              float64 `json:"read_lift"`

	WriteVisibleImmediately bool `json:"write_visible_immediately"`

	SingleHomeBuckets []Bucket `json:"single_home_buckets"`
	ReplicatedBuckets []Bucket `json:"replicated_buckets"`
}

// e13Reads hammers ref's read method from e13Parallel goroutines on
// every reader at once for a timed phase.
func e13Reads(readers []*rafda.Node, refs []*rafda.Ref, phase time.Duration) ([]Bucket, error) {
	return timedPhase(load{parallel: len(readers) * e13Parallel, phase: phase}, func(g int) error {
		i := g % len(readers)
		_, err := readers[i].CallOn(refs[i], "get")
		return err
	})
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

func e13(p profile, out string) error {
	report := E13Report{
		header:    newHeader("e13"),
		Parallel:  e13Parallel,
		Heartbeat: e10Heartbeat.String(),
		Replicas:  3,
	}
	tr, err := transformed(e13Source, "rrp")
	if err != nil {
		return err
	}
	nodes, eps, closeAll, err := lanNodes(tr, "home", "reader-a", "reader-b")
	if err != nil {
		return err
	}
	defer closeAll()
	home, readers := nodes[0], nodes[1:]
	for i, n := range nodes {
		cl, err := n.JoinCluster(rafda.ClusterConfig{Seeds: eps[:i], Heartbeat: e10Heartbeat, Fanout: 3})
		if err != nil {
			return err
		}
		cl.Start()
		defer cl.Stop()
	}

	// The hot object materialises at its home (Setup's class init runs
	// there); each reader resolves the same instance into a proxy.
	hot, err := home.Call("Setup", "get")
	if err != nil {
		return err
	}
	var refs []*rafda.Ref
	for _, r := range readers {
		if err := r.PlaceClass("Setup", eps[0]); err != nil {
			return err
		}
		ref, err := r.Call("Setup", "get")
		if err != nil {
			return err
		}
		refs = append(refs, ref.(*rafda.Ref))
	}

	// Phase A — single home: every read from the readers is a LAN
	// round trip to the primary.
	buckets, err := e13Reads(readers, refs, p.phase)
	if err != nil {
		return err
	}
	report.SingleHomeBuckets = buckets
	report.SingleHomeReadsPerSec = tailMean(buckets)

	// Replicate to both readers; the home stays the lease-holding
	// primary.  Wait for the replica routes to reach the readers
	// through gossip before re-measuring.
	if err := home.Replicate(hot.(*rafda.Ref), eps[1], eps[2]); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	deadline := time.Now().Add(50 * e10Heartbeat)
	for {
		okA, err := e13LocalRead(readers[0], refs[0])
		if err != nil {
			return err
		}
		okB, err := e13LocalRead(readers[1], refs[1])
		if err != nil {
			return err
		}
		if okA && okB {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica routes did not reach the readers within %v", 50*e10Heartbeat)
		}
		time.Sleep(e10Heartbeat)
	}

	// Phase B — replicated: reads collapse to the local copies.
	buckets, err = e13Reads(readers, refs, p.phase)
	if err != nil {
		return err
	}
	report.ReplicatedBuckets = buckets
	report.ReplicatedReadsPerSec = tailMean(buckets)
	report.ReadLift = report.ReplicatedReadsPerSec / report.SingleHomeReadsPerSec

	// Write-visibility coda: a write through a reader's proxy
	// serialises at the primary and must update every copy before it
	// acknowledges — both readers' very next reads see the new value.
	if _, err := readers[0].CallOn(refs[0], "set", 1234); err != nil {
		return fmt.Errorf("write through replica proxy: %w", err)
	}
	for i, r := range readers {
		got, err := r.CallOn(refs[i], "get")
		if err != nil {
			return err
		}
		if got != int64(1234) {
			return fmt.Errorf("reader %d read %v immediately after the acked write, want 1234 (stale replica)", i, got)
		}
	}
	report.WriteVisibleImmediately = true

	fmt.Printf("read replication, %d readers x %d callers over simulated LAN (heartbeat %v)\n\n",
		len(readers), e13Parallel, e10Heartbeat)
	fmt.Printf("  %-34s %12.0f reads/s\n", "single home (all reads remote)", report.SingleHomeReadsPerSec)
	fmt.Printf("  %-34s %12.0f reads/s  (%.1fx)\n", "replicated x3 (reads local)",
		report.ReplicatedReadsPerSec, report.ReadLift)
	fmt.Printf("  %-34s %12v\n", "write visible immediately", report.WriteVisibleImmediately)

	if report.ReadLift < e13MinLift {
		return fmt.Errorf("read lift %.2fx below the %.1fx bar", report.ReadLift, e13MinLift)
	}
	fmt.Printf("\nreplicated reads scale: %.1fx the single-home ceiling with 3 copies, "+
		"writes still serialise through the primary\n", report.ReadLift)

	return writeReport(out, "e13", report)
}
