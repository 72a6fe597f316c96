package adapt

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rafda/internal/ir"
	"rafda/internal/metrics"
	"rafda/internal/telemetry"
	"rafda/internal/vm"
)

const (
	epA = "rrp://a:1"
	epB = "rrp://b:1"
)

// fakeNode scripts the node the engine drives: each method calls the
// func field of the same name.
type fakeNode struct {
	migrate        func(obj *vm.Object, endpoint string) error
	placeClassIf   func(class, endpoint string, ifVersion uint64) error
	policyVersion  func() uint64
	classPlacement func(class string) string
	isMigratable   func(obj *vm.Object) bool
	endpoints      func() []string
	replicate      func(obj *vm.Object, endpoints []string) error
	isReplicated   func(obj *vm.Object) bool
	submitIntent   func(p Proposal) (bool, string)
	recordDecision func(d Decision)
}

func (f *fakeNode) Migrate(ref vm.Value, ep string) error { return f.migrate(ref.O, ep) }
func (f *fakeNode) Replicate(ref vm.Value, eps ...string) error {
	return f.replicate(ref.O, eps)
}
func (f *fakeNode) IsMigratable(obj *vm.Object) bool       { return f.isMigratable(obj) }
func (f *fakeNode) IsReplicated(obj *vm.Object) bool       { return f.isReplicated(obj) }
func (f *fakeNode) Endpoints() []string                    { return f.endpoints() }
func (f *fakeNode) PolicyVersion() uint64                  { return f.policyVersion() }
func (f *fakeNode) ClassPlacement(class string) string     { return f.classPlacement(class) }
func (f *fakeNode) SubmitIntent(p Proposal) (bool, string) { return f.submitIntent(p) }
func (f *fakeNode) RecordDecision(d Decision)              { f.recordDecision(d) }
func (f *fakeNode) PlaceClassIf(class, ep string, ifVersion uint64) error {
	return f.placeClassIf(class, ep, ifVersion)
}

// harness wires an engine over a real recorder and a scripted node.
type harness struct {
	rec       *telemetry.Recorder
	eng       *Engine
	node      *fakeNode
	migrated  []string // "guid->endpoint"
	placed    []string // "class->endpoint"
	local     map[*vm.Object]bool
	polV      uint64
	placement map[string]string
	replicas  map[*vm.Object][]string

	mu   sync.Mutex // guards decs: the timed loop records from its goroutine
	decs []Decision // every decision the engine recorded on the node
}

// decisions returns the decisions recorded so far.
func (h *harness) decisions() []Decision {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.decs)
}

// record is the harness node's RecordDecision.
func (h *harness) record(d Decision) {
	h.mu.Lock()
	h.decs = append(h.decs, d)
	h.mu.Unlock()
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{
		rec:       telemetry.NewRecorder(nil),
		local:     map[*vm.Object]bool{},
		placement: map[string]string{},
		replicas:  map[*vm.Object][]string{},
	}
	h.node = &fakeNode{
		migrate: func(obj *vm.Object, ep string) error {
			h.migrated = append(h.migrated, fmt.Sprintf("%p->%s", obj, ep))
			h.local[obj] = false
			return nil
		},
		placeClassIf: func(class, ep string, ifVersion uint64) error {
			if ifVersion != h.polV {
				return fmt.Errorf("policy version moved")
			}
			h.placed = append(h.placed, class+"->"+ep)
			h.placement[class] = ep
			h.polV++
			return nil
		},
		policyVersion:  func() uint64 { return h.polV },
		classPlacement: func(class string) string { return h.placement[class] },
		isMigratable:   func(obj *vm.Object) bool { return h.local[obj] },
		endpoints:      func() []string { return []string{epB} },
		replicate: func(obj *vm.Object, eps []string) error {
			h.replicas[obj] = append([]string(nil), eps...)
			return nil
		},
		isReplicated:   func(obj *vm.Object) bool { return len(h.replicas[obj]) > 0 },
		submitIntent:   func(Proposal) (bool, string) { return false, "" },
		recordDecision: h.record,
	}
	h.eng = New(h.rec, h.node, cfg)
	return h
}

func (h *harness) hotObject(guid string, calls int, from string) *vm.Object {
	obj := vm.NewRawObject(&ir.Class{Name: "C_O_Local"}, map[string]vm.Value{})
	h.local[obj] = true
	s := h.rec.ForObject(obj, guid, "C")
	for i := 0; i < calls; i++ {
		s.RecordInbound(from, 8, 8, time.Microsecond)
	}
	return obj
}

func TestAffinityMigratesAfterConfirm(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 2, Budget: 2})
	s := h.rec.ForObject(h.hotObject("g1", 50, epA), "g1", "C")

	h.eng.Tick() // streak 1: no action yet
	if len(h.migrated) != 0 {
		t.Fatalf("migrated before hysteresis confirmed: %v", h.migrated)
	}
	for i := 0; i < 50; i++ {
		s.RecordInbound(epA, 8, 8, time.Microsecond)
	}
	h.eng.Tick() // streak 2: act
	if len(h.migrated) != 1 {
		t.Fatalf("migrations = %v, want one", h.migrated)
	}
	dl := h.decisions()
	if len(dl) != 1 || !dl[0].Executed || dl[0].Kind != KindMigrate || dl[0].Endpoint != epA {
		t.Fatalf("bad decision log: %+v", dl)
	}
	if dl[0].Rule != "affinity" {
		t.Fatalf("rule = %q", dl[0].Rule)
	}
}

func TestQuietObjectNeverProposed(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 100, Confirm: 1})
	h.hotObject("g1", 50, epA) // below MinCalls
	h.eng.Tick()
	h.eng.Tick()
	if len(h.decisions()) != 0 {
		t.Fatalf("decisions on a quiet object: %+v", h.decisions())
	}
}

func TestMixedAffinityBelowThresholdHolds(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.9, MinCalls: 10, Confirm: 1})
	obj := h.hotObject("g1", 50, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	for i := 0; i < 40; i++ {
		s.RecordLocal() // 50/90 from A < 0.9
	}
	h.eng.Tick()
	if len(h.decisions()) != 0 {
		t.Fatalf("migrated below threshold: %+v", h.decisions())
	}
}

func TestChangedDestinationRestartsStreak(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 2})
	obj := h.hotObject("g1", 50, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	h.eng.Tick() // streak 1 toward epA
	const epC = "rrp://c:1"
	for i := 0; i < 200; i++ {
		s.RecordInbound(epC, 8, 8, time.Microsecond)
	}
	h.eng.Tick() // dominant flipped to epC: streak restarts
	if len(h.migrated) != 0 {
		t.Fatalf("migrated on a flapping destination: %v", h.migrated)
	}
	for i := 0; i < 200; i++ {
		s.RecordInbound(epC, 8, 8, time.Microsecond)
	}
	h.eng.Tick() // epC confirmed
	if len(h.migrated) != 1 {
		t.Fatalf("migrations = %v", h.migrated)
	}
}

func TestBudgetSuppressesPingPong(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1, Budget: 1})
	obj := h.hotObject("g1", 50, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	h.eng.Tick()
	if len(h.migrated) != 1 {
		t.Fatalf("first migration should execute: %v", h.migrated)
	}
	// Keep the object "local" again (as if it bounced back) and keep
	// the affinity signal coming: budget must hold the line.
	h.local[obj] = true
	for w := 0; w < 5; w++ {
		for i := 0; i < 50; i++ {
			s.RecordInbound(epA, 8, 8, time.Microsecond)
		}
		h.eng.Tick()
	}
	if len(h.migrated) != 1 {
		t.Fatalf("budget failed to suppress repeat migrations: %v", h.migrated)
	}
	var suppressed int
	for _, d := range h.decisions() {
		if !d.Executed && d.Err != "" {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Fatal("suppression not recorded in the decision log")
	}
}

func TestProxiedObjectNotMigrated(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	obj := h.hotObject("g1", 50, epA)
	h.local[obj] = false // already morphed into a proxy
	h.eng.Tick()
	h.eng.Tick()
	if len(h.migrated) != 0 {
		t.Fatalf("migrated a proxy: %v", h.migrated)
	}
	// Non-migratable objects are filtered before hysteresis: no
	// decision (not even a suppressed one) may recur in the log.
	if dl := h.decisions(); len(dl) != 0 {
		t.Fatalf("proxy produced decisions: %+v", dl)
	}
}

// TestTwoClassFlipsInOneTick pins the version-threading contract: two
// class placements confirming in the same tick must both execute — the
// first flip's version bump is the engine's own, not a concurrent
// operator re-policy.
func TestTwoClassFlipsInOneTick(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	for i := 0; i < 20; i++ {
		h.rec.RecordCreateServed("C", epA)
		h.rec.RecordCreateServed("D", epA)
	}
	h.eng.Tick()
	if len(h.placed) != 2 {
		t.Fatalf("placements = %v, want both C and D flipped", h.placed)
	}
	for _, d := range h.decisions() {
		if !d.Executed {
			t.Fatalf("same-tick flip vetoed: %+v", d)
		}
	}
}

func TestRestartAfterStop(t *testing.T) {
	h := newHarness(t, Config{Window: 5 * time.Millisecond, Threshold: 0.6, MinCalls: 10, Confirm: 1})
	h.eng.Start()
	h.eng.Stop()
	s := h.rec.ForObject(h.hotObject("g1", 0, epA), "g1", "C")
	h.eng.Start() // must actually resume the loop
	deadline := time.Now().Add(2 * time.Second)
	for len(h.decisions()) == 0 && time.Now().Before(deadline) {
		for i := 0; i < 50; i++ {
			s.RecordInbound(epA, 8, 8, time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.eng.Stop()
	if len(h.decisions()) == 0 {
		t.Fatal("restarted loop never ticked")
	}
}

func TestSelfEndpointNeverATarget(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.5, MinCalls: 10, Confirm: 1})
	h.hotObject("g1", 50, epB) // all calls "from" our own endpoint
	h.eng.Tick()
	if len(h.decisions()) != 0 {
		t.Fatalf("proposed migrating to self: %+v", h.decisions())
	}
}

func TestClassPullFlipsRemoteClassLocal(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 2})
	h.placement["C"] = epA
	for i := 0; i < 50; i++ {
		h.rec.RecordOutbound("C", epA, 16, time.Millisecond)
	}
	h.eng.Tick()
	for i := 0; i < 50; i++ {
		h.rec.RecordOutbound("C", epA, 16, time.Millisecond)
	}
	h.eng.Tick()
	if len(h.placed) != 1 || h.placed[0] != "C->" {
		t.Fatalf("placements = %v, want [C->]", h.placed)
	}
	if h.placement["C"] != "" {
		t.Fatal("placement not flipped to local")
	}
}

func TestClassPushFlipsLocalClassToDominantPeer(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	for i := 0; i < 20; i++ {
		h.rec.RecordCreateServed("C", epA)
	}
	h.hotObject("g1", 30, epA)
	h.eng.Tick()
	if len(h.placed) != 1 || h.placed[0] != "C->"+epA {
		t.Fatalf("placements = %v, want [C->%s]", h.placed, epA)
	}
}

func TestPlaceClassRespectsPolicyVersion(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	for i := 0; i < 20; i++ {
		h.rec.RecordCreateServed("C", epA)
	}
	// An "operator" re-policies between the engine's version read and
	// its apply: simulate by bumping the version inside PolicyVersion's
	// next read... simplest: wrap PlaceClass to bump first.
	innerPlace := h.node.placeClassIf
	h.node.placeClassIf = func(class, ep string, ifVersion uint64) error {
		h.polV++ // concurrent operator flip wins
		return innerPlace(class, ep, ifVersion)
	}
	h.eng.Tick()
	dl := h.decisions()
	if len(dl) != 1 || dl[0].Executed {
		t.Fatalf("stale-version flip must not execute: %+v", dl)
	}
	if len(h.placed) != 0 {
		t.Fatalf("placements = %v", h.placed)
	}
}

// TestOnDecisionMayUseEngineAPI pins the callback contract: OnDecision
// fires outside the engine lock, so a callback that uses the engine's
// own API (here Stop, which takes the engine lock) must not deadlock.
func TestOnDecisionMayUseEngineAPI(t *testing.T) {
	var h *harness
	var observed int
	cfg := Config{Threshold: 0.6, MinCalls: 10, Confirm: 1,
		OnDecision: func(d Decision) {
			h.eng.Stop() // would deadlock if called under e.mu
			observed++
		}}
	h = newHarness(t, cfg)
	h.hotObject("g1", 50, epA)
	done := make(chan struct{})
	go func() {
		h.eng.Tick()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Tick deadlocked delivering OnDecision")
	}
	if observed != 1 || len(h.decisions()) != 1 {
		t.Fatalf("callback saw %d decisions, node recorded %d; want 1 each", observed, len(h.decisions()))
	}
}

// TestRecordDecisionPrecedesOnDecision pins the node-side recording
// contract: RecordDecision fires once per decision — executed or
// suppressed — before OnDecision sees it, and outside the engine lock,
// so it may use the engine's own API.
func TestRecordDecisionPrecedesOnDecision(t *testing.T) {
	var h *harness
	var calls []string
	cfg := Config{Threshold: 0.6, MinCalls: 10, Confirm: 1, Budget: 1,
		OnDecision: func(d Decision) { calls = append(calls, fmt.Sprintf("observe %d", len(h.decisions()))) }}
	h = newHarness(t, cfg)
	h.node.recordDecision = func(d Decision) {
		h.eng.Stop() // would deadlock if called under e.mu
		h.record(d)
		calls = append(calls, fmt.Sprintf("record %d", len(h.decisions())))
	}
	obj := h.hotObject("g1", 50, epA)
	h.hotObject("g2", 50, epA)
	done := make(chan struct{})
	go func() {
		h.eng.Tick()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Tick deadlocked delivering RecordDecision")
	}
	want := []string{"record 1", "observe 1", "record 2", "observe 2"}
	if !slices.Equal(calls, want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}

	// g1 comes back and turns hot again: its budget is spent, so the
	// decision is suppressed — and still recorded.
	calls = nil
	h.local[obj] = true
	s := h.rec.ForObject(obj, "g1", "C")
	for i := 0; i < 50; i++ {
		s.RecordInbound(epA, 8, 8, time.Microsecond)
	}
	h.eng.Tick()
	if d := h.decisions(); len(d) != 3 || d[2].Executed || d[2].Err == "" {
		t.Fatalf("want a suppressed third decision: %+v", d)
	}
	if want := []string{"record 3", "observe 3"}; !slices.Equal(calls, want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
}

func TestStartStopLoop(t *testing.T) {
	h := newHarness(t, Config{Window: 5 * time.Millisecond, Threshold: 0.6, MinCalls: 10, Confirm: 1})
	s := h.rec.ForObject(h.hotObject("g1", 0, epA), "g1", "C")
	h.eng.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(h.decisions()) == 0 && time.Now().Before(deadline) {
		for i := 0; i < 50; i++ {
			s.RecordInbound(epA, 8, 8, time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.eng.Stop()
	h.eng.Stop() // idempotent
	if len(h.decisions()) == 0 {
		t.Fatal("ticker loop never decided")
	}
}

// TestMigrationDelegatesToCluster: when SubmitIntent accepts, the engine
// must propose instead of act, spend no budget, and fall back to direct
// execution when it reports no cluster.
func TestMigrationDelegatesToCluster(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1, Budget: 1})
	var intents []Proposal
	clustered := true
	h.node.submitIntent = func(p Proposal) (bool, string) {
		if !clustered {
			return false, ""
		}
		intents = append(intents, p)
		return true, ""
	}
	s := h.rec.ForObject(h.hotObject("g1", 50, epA), "g1", "C")
	h.eng.Tick()
	if len(h.migrated) != 0 {
		t.Fatalf("delegated decision also executed: %v", h.migrated)
	}
	if len(intents) != 1 || intents[0].Endpoint != epA || intents[0].Priority != 50 {
		t.Fatalf("intent not submitted: %+v", intents)
	}
	ds := h.decisions()
	if len(ds) != 1 || !ds[0].Delegated || ds[0].Executed {
		t.Fatalf("decision not marked delegated: %+v", ds)
	}

	// Delegation spends no budget: the same proposal can re-delegate
	// past Budget=1, and direct execution still has its budget intact.
	for i := 0; i < 3; i++ {
		for j := 0; j < 50; j++ {
			s.RecordInbound(epA, 8, 8, time.Microsecond)
		}
		h.eng.Tick()
	}
	if len(intents) < 2 {
		t.Fatalf("re-delegation blocked: %d intents", len(intents))
	}
	clustered = false
	for j := 0; j < 50; j++ {
		s.RecordInbound(epA, 8, 8, time.Microsecond)
	}
	h.eng.Tick()
	if len(h.migrated) != 1 {
		t.Fatalf("fallback to direct execution failed: %v (log %+v)", h.migrated, h.decisions())
	}
}

// readTraffic records a window of spread-out read-mostly traffic: calls
// from each endpoint plus the verifier-classified effect split.
func readTraffic(s *telemetry.ObjStats, perCaller map[string]int, reads, writes int) {
	for ep, n := range perCaller {
		for i := 0; i < n; i++ {
			s.RecordInbound(ep, 8, 8, time.Microsecond)
		}
	}
	for i := 0; i < reads; i++ {
		s.RecordEffect(false)
	}
	for i := 0; i < writes; i++ {
		s.RecordEffect(true)
	}
}

func TestReplicateReadMostlySpreadObject(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 2})
	const epC = "rrp://c:1"
	obj := h.hotObject("g1", 0, epA)
	s := h.rec.ForObject(obj, "g1", "C")

	// Two remote callers, neither dominant; all calls classified reads.
	readTraffic(s, map[string]int{epA: 30, epC: 25}, 55, 0)
	h.eng.Tick() // streak 1
	if len(h.replicas) != 0 {
		t.Fatalf("replicated before hysteresis confirmed: %v", h.replicas)
	}
	readTraffic(s, map[string]int{epA: 30, epC: 25}, 55, 0)
	h.eng.Tick() // streak 2: act
	got := h.replicas[obj]
	if len(got) != 2 || got[0] != epA || got[1] != epC {
		t.Fatalf("replica targets = %v, want [%s %s]", got, epA, epC)
	}
	dl := h.decisions()
	if len(dl) != 1 || !dl[0].Executed || dl[0].Kind != KindReplicate || dl[0].Rule != "replicate" {
		t.Fatalf("bad decision log: %+v", dl)
	}

	// Already replicated: the rule must not re-propose.
	readTraffic(s, map[string]int{epA: 30, epC: 25}, 55, 0)
	h.eng.Tick()
	readTraffic(s, map[string]int{epA: 30, epC: 25}, 55, 0)
	h.eng.Tick()
	if len(h.decisions()) != 1 {
		t.Fatalf("re-proposed for a replicated object: %+v", h.decisions())
	}
}

func TestWriteHeavyObjectNotReplicated(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	const epC = "rrp://c:1"
	obj := h.hotObject("g1", 0, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	// 20% writes > maxWriteShare: replication would tax every
	// write with a synchronous fan-out for little read win.
	readTraffic(s, map[string]int{epA: 30, epC: 25}, 44, 11)
	h.eng.Tick()
	if len(h.decisions()) != 0 {
		t.Fatalf("write-heavy object replicated: %+v", h.decisions())
	}
}

func TestDominantCallerPrefersMigration(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	obj := h.hotObject("g1", 0, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	// One remote endpoint makes 100% of the calls: even though the
	// object is read-only, moving it there beats pinning a replica set.
	readTraffic(s, map[string]int{epA: 50}, 50, 0)
	h.eng.Tick()
	if len(h.replicas) != 0 {
		t.Fatalf("replicated a single-caller object: %v", h.replicas)
	}
	if len(h.migrated) != 1 {
		t.Fatalf("affinity migration missing: %+v", h.decisions())
	}
}

func TestReplicateFanoutPicksHottestCallers(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.9, MinCalls: 10, Confirm: 1})
	const epC = "rrp://c:1"
	const epD = "rrp://d:1"
	obj := h.hotObject("g1", 0, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	// Three remote callers; replicaFanout (2) must take the two heaviest.
	readTraffic(s, map[string]int{epA: 40, epC: 35, epD: 5}, 80, 0)
	h.eng.Tick()
	got := h.replicas[obj]
	if len(got) != 2 || got[0] != epA || got[1] != epC {
		t.Fatalf("replica targets = %v, want the two hottest [%s %s]", got, epA, epC)
	}
}

func TestUnclassifiedTrafficNotReplicated(t *testing.T) {
	h := newHarness(t, Config{Threshold: 0.6, MinCalls: 10, Confirm: 1})
	const epC = "rrp://c:1"
	obj := h.hotObject("g1", 0, epA)
	s := h.rec.ForObject(obj, "g1", "C")
	// Calls arrive but the effect plane classified none of them as
	// reads (e.g. an untransformed or natively-dispatched class): no
	// proof of read-mostliness, no replication.
	readTraffic(s, map[string]int{epA: 30, epC: 25}, 0, 0)
	h.eng.Tick()
	if len(h.decisions()) != 0 {
		t.Fatalf("replicated on unclassified traffic: %+v", h.decisions())
	}
}

// TestOverflowNeverProposed floods an object's callers past
// metrics.FamilyMax, with the unitemised overflow carrying most of the
// traffic: the overflow instrument's metrics.Other key must never
// surface as a destination, only as unitemised calls.
func TestOverflowNeverProposed(t *testing.T) {
	rec := telemetry.NewRecorder(nil)
	obj := vm.NewRawObject(&ir.Class{Name: "C_O_Local"}, map[string]vm.Value{})
	s := rec.ForObject(obj, "g", "C")
	for i := 0; i < metrics.FamilyMax+10; i++ {
		ep := fmt.Sprintf("rrp://10.0.%d.%d:1", i/256, i%256)
		s.RecordInbound(ep, 8, 8, time.Microsecond)
	}
	const late = 2000 // one past-cap caller, dominant
	for i := 0; i < late; i++ {
		s.RecordInbound("rrp://late:1", 8, 8, time.Microsecond)
		s.RecordEffect(false)
	}
	objs, _ := rec.NewWindow().Next()
	if len(objs) != 1 || objs[0].Anon < late || objs[0].Calls() != metrics.FamilyMax+10+late {
		t.Fatalf("overflow not counted unitemised: %+v", objs)
	}
	v := &View{
		Objects: []ObjWindow{{ObjSample: objs[0], Migratable: true}},
		Self:    map[string]bool{},
	}
	rules := []Rule{
		&AffinityRule{Threshold: 0.5, MinCalls: 1},
		&ReplicateRule{MinCalls: 1, MigrateThreshold: 0.5},
	}
	var proposals int
	for _, r := range rules {
		for _, p := range r.Evaluate(v) {
			proposals++
			if p.Endpoint == metrics.Other || slices.Contains(p.Endpoints, metrics.Other) {
				t.Fatalf("%s proposed the overflow key: %+v", r.Name(), p)
			}
		}
	}
	if proposals != 1 {
		t.Fatalf("%d proposals, want the replication to itemised callers only", proposals)
	}
}

// TestDecisionOutcome pins the outcome word every decision log line
// prints: a delegated decision is not mistaken for a held one, and a
// held decision says why.
func TestDecisionOutcome(t *testing.T) {
	for _, tc := range []struct {
		d    Decision
		want string
	}{
		{Decision{Executed: true}, "executed"},
		{Decision{Delegated: true}, "delegated"},
		{Decision{Err: "suppressed: budget 2/2 spent in the last 64 windows"},
			"held: suppressed: budget 2/2 spent in the last 64 windows"},
		{Decision{}, "held"},
	} {
		if got := tc.d.Outcome(); got != tc.want {
			t.Errorf("%+v: Outcome() = %q, want %q", tc.d, got, tc.want)
		}
	}
}
