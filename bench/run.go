package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Failure classes, by the stable marker in the error text.
const (
	failShed = iota
	failDeadline
	failRetired
	failUnavailable
	failWrong
	failOther
	numFailClasses
)

var failNames = [numFailClasses]string{"load-shed", "deadline", "retired-duplicate", "unavailable", "wrong-result", "other"}

func classify(err error) int {
	s := err.Error()
	switch {
	case strings.Contains(s, "load-shed:"):
		return failShed
	case strings.Contains(s, "deadline expired"):
		return failDeadline
	case strings.Contains(s, "duplicate of retired call"):
		return failRetired
	case strings.Contains(s, "connection refused"), strings.Contains(s, "client closed"),
		strings.Contains(s, "connection lost"), strings.Contains(s, "connection reset"),
		strings.Contains(s, "broken pipe"), strings.Contains(s, "EOF"), strings.Contains(s, "dial "):
		return failUnavailable
	}
	return failOther
}

// loopState is what one caller's loop shares with the sampler.
type loopState struct {
	// Every call adds to exactly one of ok and failed, so a reader that
	// sees them mid-call never counts a call twice or as neither.
	ok       atomic.Int64
	failed   atomic.Int64
	fails    [numFailClasses]int64
	firstErr string
	lat      []int32 // latencies (ns) of the verified calls made while measuring
}

// loop calls until stop is set, verifying every result; a failing call
// is counted and never ends the run.  skew is added to every expected
// integer result (the smoke test uses it to prove wrong results count).
func (c *caller) loop(w *workload, st *loopState, measuring, stop *atomic.Bool, skew int64, sp *spans, id int) {
	name := "call." + w.name
	for i := 0; !stop.Load(); i++ {
		k := &c.ring[i%len(c.ring)]
		var span int
		if sp != nil {
			span = sp.begin(name, -1, uint64(id)<<32|uint64(i))
		}
		t0 := time.Now()
		got, err := c.node.CallOn(c.ref, w.method, k.args...)
		ns := time.Since(t0)
		if sp != nil {
			sp.end(span)
		}
		class := -1
		switch {
		case err != nil:
			class = classify(err)
			if st.firstErr == "" {
				st.firstErr = err.Error()
			}
		case !w.check(c, k, got, skew):
			class = failWrong
		}
		if class >= 0 {
			st.fails[class]++
			st.failed.Add(1)
			continue
		}
		c.acked++
		st.ok.Add(1)
		if measuring.Load() {
			st.lat = append(st.lat, int32(min(ns, time.Second)))
		}
	}
}

// startLoops starts one loop per caller; the returned function ends
// them and waits.  Latencies are kept only while measuring is set.
func startLoops(w *workload, callers []*caller, measuring *atomic.Bool, o runOpts) (states []*loopState, stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	for i, c := range callers {
		st := &loopState{lat: make([]int32, 0, int(100_000*o.slice.Seconds()))}
		states = append(states, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(w, st, measuring, &quit, o.skew, o.spans, i)
		}()
	}
	return states, func() {
		quit.Store(true)
		wg.Wait()
	}
}

func (w *workload) check(c *caller, k *call, got any, skew int64) bool {
	want := k.want
	if w.counter {
		want = c.acked + 1
	}
	if n, ok := want.(int64); ok {
		want = n + skew
	}
	return got == want
}

// snapshot is the process-wide state read before and after a round's slice.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process: every node and the harness
	mallocs uint64
	bytes   uint64
	ok      int64
	failed  int64
}

func takeSnapshot(states []*loopState) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := snapshot{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
	for _, st := range states {
		s.ok += st.ok.Load()
		s.failed += st.failed.Load()
	}
	return s
}

// stat is a per-round metric reduced to its median, with the quartiles
// and extremes kept so a reader sees how far the rounds disagreed.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
}

func overRounds(unit string, vals []float64) stat {
	if len(vals) == 0 {
		return one(unit, 0)
	}
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	return stat{Value: median(s), Unit: unit, Min: s[0], Q1: median(s[:n/2]), Q3: median(s[(n+1)/2:]), Max: s[n-1]}
}

// one is a stat measured once.
func one(unit string, v float64) stat {
	return stat{Value: v, Unit: unit, Min: v, Q1: v, Q3: v, Max: v}
}

// iqr is the distance between the quartiles as a share of the median.
func (s stat) iqr() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile of a sorted slice (nearest rank).
func quantile(s []int32, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[min(int(q*float64(len(s))), len(s)-1)])
}

// runResult is one end-to-end run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Status    string            `json:"status"` // ok | disturbed | unresolved
	Metrics   map[string]stat   `json:"metrics"`
	Tail      map[string]stat   `json:"tail"` // printed, never gated
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Fails     map[string]int64  `json:"fails,omitempty"`
	FirstErr  string            `json:"first_error,omitempty"`
	Samples   int               `json:"latency_samples"`
	Dedup     map[string]uint64 `json:"dedup"`
	Forwards  uint64            `json:"forward_hops"`
	Canary    stat              `json:"canary_ms"`     // per round: the slower of the canaries before and after
	Steady    int               `json:"steady_rounds"` // rounds whose canary was within 10 % of the lower quartile
	PSISomeUs int64             `json:"psi_cpu_some_us"`
	Notes     []string          `json:"notes,omitempty"`
}

// runOpts shapes one run; the zero skew and nil spans are the normal,
// untraced measurement.
type runOpts struct {
	seed      uint64
	rounds    int           // fresh deployments measured; figures are medians over them
	warm      time.Duration // per round, untimed
	slice     time.Duration // per round, measured
	skew      int64
	spans     *spans
	serialOne bool // one caller only (the ledger's serial figure)
}

// defaultOpts spends seconds measuring, split over ten rounds.  Two
// deployments of the same workload in one process differ by several
// percent in every figure (which connection and goroutine land on which
// core is settled at set-up), more than one deployment varies over time;
// so a run redeploys for every round and reports the median round.
func defaultOpts(seed uint64, seconds float64) runOpts {
	const rounds = 10
	slice := time.Duration(seconds / rounds * float64(time.Second))
	return runOpts{seed: seed, rounds: rounds, warm: slice * 3 / 10, slice: slice}
}

// run measures the workload over o.rounds rounds.  Each round sets the
// workload up from nothing (timed: setup_s), warms it, measures one
// slice, verifies the final state and tears everything down.
func (w *workload) run(o runOpts) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: o.seed, Status: "ok",
		Metrics: map[string]stat{}, Tail: map[string]stat{}, Fails: map[string]int64{}, Dedup: map[string]uint64{}}
	rings := w.rings(o.seed)
	payload := 0
	for _, a := range rings[0][0].args {
		if s, ok := a.(string); ok {
			payload += len(s)
		}
	}
	var canaryMs, setupS, rate, p50, cpu, allocs, bytes, mbps, migUs []float64
	var all []int32
	var okCalls int64
	migrations, migFailed := 0, 0
	for r := 0; r < o.rounds; r++ {
		runtime.GC() // each round starts from a collected heap, like a fresh process
		canary0 := canary()
		stopPump := func() {}
		if w.net.Latency > 0 {
			stopPump = startTimerPump()
		}
		t0 := time.Now()
		d, err := w.setup(o.seed, "rrp")
		if err != nil {
			stopPump()
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		callers := d.callers
		if o.serialOne {
			callers = callers[:1]
		}

		for i, c := range callers {
			c.ring = rings[i]
		}
		var measuring atomic.Bool
		states, stopLoops := startLoops(w, callers, &measuring, o)
		var mig *migrator
		if w.migrateEvery > 0 {
			mig = startMigrator(d, o.seed+uint64(r))
		}
		time.Sleep(o.warm)
		a := takeSnapshot(states)
		measuring.Store(true)
		time.Sleep(o.slice)
		b := takeSnapshot(states)
		if mig != nil {
			mig.stop()
			migUs = append(migUs, mig.us...)
			migrations, migFailed = migrations+len(mig.us), migFailed+mig.failed
			if mig.firstErr != "" && len(res.Notes) < 4 {
				res.Notes = append(res.Notes, "migration error: "+mig.firstErr)
			}
		}
		stopLoops()
		stopPump()
		canaryMs = append(canaryMs, max(canary0, canary()).Seconds()*1e3)

		ok := b.ok - a.ok
		// Final-state check: a counter must equal its caller's
		// acknowledged calls, or every call of the round counts as failed.
		if w.counter {
			for i, c := range callers {
				got, err := c.node.CallOn(c.ref, "get")
				if err != nil || got != c.acked {
					res.Notes = append(res.Notes, fmt.Sprintf("round %d caller %d: final counter %v (err %v), acknowledged %d", r, i, got, err, c.acked))
					res.Fails[failNames[failWrong]] += ok
					ok = 0
				}
			}
		}
		res.Attempted += b.ok - a.ok + b.failed - a.failed
		okCalls += ok
		calls := float64(max(ok, 1)) // a round with no good call: keep the ratios finite
		secs := b.at.Sub(a.at).Seconds()
		var lat []int32
		for _, st := range states {
			lat = append(lat, st.lat...)
			// Classes count warm-up failures too; the ratio does not.
			for c, n := range st.fails {
				if n > 0 {
					res.Fails[failNames[c]] += n
				}
			}
			if res.FirstErr == "" {
				res.FirstErr = st.firstErr
			}
		}
		slices.Sort(lat)
		all = append(all, lat...)
		rate = append(rate, float64(ok)/secs)
		p50 = append(p50, quantile(lat, 0.5)/1e3)
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/calls)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/calls)
		bytes = append(bytes, float64(b.bytes-a.bytes)/calls)
		mbps = append(mbps, float64(ok)*float64(2*payload)/secs/1e6)

		for _, n := range d.nodes[1:] {
			ds := n.DedupStats()
			res.Dedup["replayed"] += ds.ReplayHits
			res.Dedup["parked"] += ds.ParkedDuplicates
			res.Dedup["stale"] += ds.StaleRejected
			res.Dedup["executed"] += n.Stats().RemoteCallsIn - ds.Suppressed()
			res.Forwards += n.Stats().RemoteCallsOut
		}
		d.close()
	}

	// A round whose canary ran over 10 % slower than the run's lower
	// quartile was measured on a slowed machine; its figures are left out.
	res.Canary = overRounds("ms", canaryMs)
	steady := func(vals []float64) []float64 {
		var kept []float64
		for r, v := range vals {
			if canaryMs[r] <= 1.10*res.Canary.Q1 {
				kept = append(kept, v)
			}
		}
		return kept
	}
	res.Steady = len(steady(rate))
	res.Metrics["setup_s"] = overRounds("s", steady(setupS))
	res.Metrics["calls_per_s"] = overRounds("calls/s", steady(rate))
	res.Metrics["call_p50_us"] = overRounds("us", steady(p50))
	res.Metrics["cpu_us_per_call"] = overRounds("us", steady(cpu))
	res.Metrics["allocs_per_call"] = overRounds("allocs", steady(allocs))
	res.Tail["bytes_alloc_per_call"] = overRounds("B", steady(bytes))
	res.Tail["payload_mb_per_s"] = overRounds("MB/s", steady(mbps))
	slices.Sort(all)
	res.Samples = len(all)
	for _, q := range []struct {
		name string
		q    float64
	}{{"call_p99_us", 0.99}, {"call_p999_us", 0.999}} {
		v := quantile(all, q.q) / 1e3
		res.Tail[q.name] = one("us", v)
	}
	if w.migrateEvery > 0 {
		res.Tail["migrate_p50_us"] = overRounds("us", migUs)
		res.Notes = append(res.Notes, fmt.Sprintf("%d migrations, %d failed", migrations, migFailed))
	}
	res.Failed = res.Attempted - okCalls
	okRatio := float64(okCalls) / float64(max(res.Attempted, 1))
	res.Metrics["ok_ratio"] = one("ratio", okRatio)
	return res, nil
}

// runChecked is run plus the disturbance verdict: fewer than half the
// rounds steady by their canaries, or the steady rounds' calls_per_s
// quartiles more than 15 % of the median apart.  The kernel's CPU
// pressure counter is recorded beside it.
func (w *workload) runChecked(o runOpts) (*runResult, error) {
	psi0 := psiCPUSome()
	res, err := w.run(o)
	if err != nil {
		return nil, err
	}
	res.PSISomeUs = psiCPUSome() - psi0
	if 2*res.Steady < o.rounds {
		res.Status = "disturbed"
		res.Notes = append(res.Notes, fmt.Sprintf("only %d of %d rounds ran on a steady machine", res.Steady, o.rounds))
	}
	if sp := res.Metrics["calls_per_s"].iqr(); sp > 0.15 {
		res.Status = "disturbed"
		res.Notes = append(res.Notes, fmt.Sprintf("calls_per_s quartiles over rounds %.0f%% apart", sp*100))
	}
	return res, nil
}

// runSteady runs the workload and, if the run was disturbed, once more:
// both runs are returned, and when both are disturbed the last is marked
// unresolved — never averaged.
func (w *workload) runSteady(o runOpts) ([]*runResult, error) {
	first, err := w.runChecked(o)
	if err != nil || first.Status == "ok" {
		return []*runResult{first}, err
	}
	second, err := w.runChecked(o)
	if err != nil {
		return nil, err
	}
	if second.Status != "ok" {
		second.Status = "unresolved"
	}
	return []*runResult{first, second}, nil
}

// migrator bounces every caller's object between the two servers,
// through the client's proxy, in seeded order.
type migrator struct {
	quit     chan struct{}
	done     chan struct{}
	us       []float64
	failed   int
	firstErr string
}

func startMigrator(d *deployment, seed uint64) *migrator {
	m := &migrator{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		r := &rng{s: seed ^ 0x6d6967}
		home := make([]int, len(d.callers)) // index into d.servers
		tick := time.NewTicker(d.w.migrateEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
			}
			first := int(r.next() % uint64(len(d.callers)))
			for i := range d.callers {
				c := (first + i) % len(d.callers)
				home[c] = 1 - home[c]
				t0 := time.Now()
				if err := d.nodes[0].Migrate(d.callers[c].ref, d.servers[home[c]]); err != nil {
					m.failed++
					if m.firstErr == "" {
						m.firstErr = err.Error()
					}
					home[c] = 1 - home[c]
					continue
				}
				m.us = append(m.us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}()
	return m
}

func (m *migrator) stop() {
	close(m.quit)
	<-m.done
}

// startTimerPump runs a thread that sleeps 100 µs in the kernel and
// yields, over and over, until the returned function is called.  The
// simulated link delays frames with time.Sleep, and when every P is idle
// the Go runtime waits in the netpoller at millisecond granularity: a
// 100 µs leg then takes about 1 ms, and a deployment settles into either
// a 1.5 ms or a 2.3 ms round trip, so runs were bimodal.  Passing through
// the scheduler every ~100 µs fires due timers on time; the link then
// behaves like a link (0.5 ms round trip, steady to 1 %).  It is stopped
// while the canary runs, which it would slow.  The pump's CPU
// (a few percent of one core) is part of cpu_us_per_call.
func startTimerPump() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		// Locked and never unlocked: the runtime ends the thread with the
		// goroutine, so the timer slack set below cannot leak into threads
		// that go on to run the program under test.
		runtime.LockOSThread()
		// Without this the kernel may delay each wake-up by up to the
		// thread's timer slack (50 µs by default), as it sees fit.
		const prSetTimerslack = 29
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // refused: sleeps stay coarser, nothing breaks
		nap := syscall.Timespec{Nsec: 100_000}
		for {
			select {
			case <-quit:
				return
			default:
			}
			_ = syscall.Nanosleep(&nap, nil) // an early wake-up (EINTR) only shortens one nap
			runtime.Gosched()
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

var canarySink uint64

// canary times a fixed pure-CPU loop of about 5 ms, best of three.  It
// runs before and after every round; a round beside a slow canary was
// measured while the machine was slowed from outside.
func canary() time.Duration {
	best := time.Duration(1 << 62)
	for range 3 {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for range 2_500_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink += x
		best = min(best, time.Since(t0))
	}
	return best
}

// psiCPUSome reads the cumulative "some" CPU stall time (µs) from
// /proc/pressure/cpu; 0 where the kernel does not provide it.
func psiCPUSome() int64 {
	b, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return 0
	}
	var avg10, avg60, avg300 float64
	var total int64
	if _, err := fmt.Sscanf(string(b), "some avg10=%f avg60=%f avg300=%f total=%d", &avg10, &avg60, &avg300, &total); err != nil {
		return 0
	}
	return total
}
