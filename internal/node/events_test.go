package node

import (
	"encoding/json"
	"sync"
	"testing"

	"rafda/internal/adapt"
	"rafda/internal/cluster"
)

// TestControlLogKeepsNewest: the control log is bounded, drops its
// oldest entries first, and keeps Seq monotonic across the trim so a
// reader can tell history was dropped.
func TestControlLogKeepsNewest(t *testing.T) {
	var n Node
	const total = maxControlLog + 7
	for i := 0; i < total; i++ {
		if i%2 == 0 {
			n.RecordDecision(adapt.Decision{Window: i})
		} else {
			n.events.add(Event{Cluster: &cluster.Event{Tick: uint64(i)}})
		}
	}
	evs := n.Events()
	if len(evs) != maxControlLog {
		t.Fatalf("log holds %d entries, want %d", len(evs), maxControlLog)
	}
	for i, e := range evs {
		if want := uint64(total - maxControlLog + 1 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
		if (e.Adapt == nil) == (e.Cluster == nil) {
			t.Fatalf("entry %d sets both or neither of Adapt and Cluster: %+v", i, e)
		}
		if e.At.IsZero() {
			t.Fatalf("entry %d is not timestamped", i)
		}
	}
}

// TestControlLogConcurrent: the adapt loop, the coordinator and
// introspection readers reach the log from their own goroutines; every
// entry gets its own sequence number and readers see it in order.
func TestControlLogConcurrent(t *testing.T) {
	var n Node
	const writers, each = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n.RecordDecision(adapt.Decision{Window: i})
				if evs := n.Events(); len(evs) > 1 && evs[len(evs)-1].Seq <= evs[0].Seq {
					t.Errorf("log out of order: first seq %d, last %d", evs[0].Seq, evs[len(evs)-1].Seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	evs := n.Events()
	if len(evs) != maxControlLog || evs[len(evs)-1].Seq != writers*each {
		t.Fatalf("log holds %d entries ending at seq %d, want %d ending at %d",
			len(evs), evs[len(evs)-1].Seq, maxControlLog, writers*each)
	}
}

// TestClusterEventsReachControlLog: a member's coordinator events land
// in its node's control log — here the follower applying a class
// placement another member announced.
func TestClusterEventsReachControlLog(t *testing.T) {
	res := transformSource(t, chainSource)
	leader, co0, _ := clusterNode(t, res, "leader", "")
	follower, co1, ep1 := clusterNode(t, res, "follower", co0.Self())
	if err := leader.PlaceClass("Counter", ep1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		co0.Tick()
		co1.Tick()
	}
	var applied bool
	for _, e := range follower.Events() {
		if c := e.Cluster; c != nil && c.Kind == "class-apply" && c.Class == "Counter" && c.Detail == "" {
			applied = true
		}
	}
	if !applied {
		t.Fatalf("follower's control log has no class-apply event for Counter: %+v", follower.Events())
	}

	// The events section serves the same log.
	out, err := follower.Introspect("events", "")
	if err != nil {
		t.Fatal(err)
	}
	var served []Event
	if err := json.Unmarshal([]byte(out), &served); err != nil {
		t.Fatalf("events section is not a list of events: %v\n%s", err, out)
	}
	if len(served) == 0 || served[len(served)-1].Cluster == nil {
		t.Fatalf("events section lost the cluster events:\n%s", out)
	}
}
