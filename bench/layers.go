package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rafda"
	"rafda/internal/corpus"
	"rafda/internal/dedup"
	"rafda/internal/intercept"
	"rafda/internal/ir"
	"rafda/internal/minijava"
	"rafda/internal/netsim"
	"rafda/internal/trace"
	"rafda/internal/transform"
	"rafda/internal/transport"
	"rafda/internal/verifier"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// layerPass is the traced run: it replays the workload's generated calls
// through each layer's public functions in isolation, with a span from
// this file around every call into a layer, then re-runs the workload
// end to end untraced and traced to price the tracing itself.
type layerPass struct {
	w       *workload
	seed    uint64
	unit    time.Duration // time budget of one probe
	sp      *spans
	ring    []call
	metrics map[string]stat
	// durs is scratch for per-batch durations (ns), reused by every probe
	// so recording them allocates nothing inside a measured loop.
	durs []int32
	// attempted/failed count the verified calls of the pass.
	attempted, failed int64
	notes             []string
}

// spanQuota bounds the per-call spans one probe records; later calls of
// the probe run unspanned, so no probe can fill the span buffer alone.
const spanQuota = 4096

func (w *workload) layerPass(seed uint64, seconds float64) (*layerPass, error) {
	p := &layerPass{w: w, seed: seed, sp: newSpans(), metrics: map[string]stat{},
		unit: time.Duration(max(seconds-2, 0.2) / 20.5 * float64(time.Second)),
		durs: make([]int32, 0, 1<<20)}
	p.ring = w.rings(seed)[0]
	for _, probe := range []func() error{
		p.compiler, p.corpus, p.interpreter, p.node, p.migrate,
		p.wire, p.dedup, p.intercept, p.trace, p.transport, p.ledger, p.overhead,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *layerPass) set(name, unit string, v float64) {
	p.metrics[name] = one(unit, v)
}

// probe is what timed measured.
type probe struct {
	n       int
	elapsed time.Duration
	allocs  float64 // heap allocations per call
	p50     float64 // median batch duration / batch size, ns
}

func (pr probe) nsPerOp() float64 { return float64(pr.elapsed.Nanoseconds()) / float64(pr.n) }

// timed calls op repeatedly for d under a root span.  Calls that cost
// microseconds take batch 1 and get a span each (up to spanQuota);
// sub-microsecond calls take a large batch and one span per batch, so
// the clock reads do not swamp what is measured.
func (p *layerPass) timed(name string, d time.Duration, batch int, op func(i int) error) (probe, error) {
	root := p.sp.begin(name, -1, 0)
	child := name + ".call"
	p.durs = p.durs[:0]
	runtime.GC() // the previous probe's garbage is not this one's to collect
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	prev, n := start, 0
	for prev.Sub(start) < d {
		s := -1
		if n/batch < spanQuota {
			s = p.sp.begin(child, root, uint64(n))
		}
		for range batch {
			if err := op(n); err != nil {
				return probe{}, fmt.Errorf("%s call %d: %w", name, n, err)
			}
			n++
		}
		p.sp.endN(s, batch)
		now := time.Now()
		if len(p.durs) < cap(p.durs) {
			p.durs = append(p.durs, int32(min(now.Sub(prev), time.Second)))
		}
		prev = now
	}
	elapsed := prev.Sub(start)
	runtime.ReadMemStats(&m1)
	p.sp.end(root)
	p.attempted += int64(n)
	slices.Sort(p.durs)
	return probe{n: n, elapsed: elapsed,
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		p50:    quantile(p.durs, 0.5) / float64(batch)}, nil
}

// compiler: minijava.CompileFiles on the workload's source.
func (p *layerPass) compiler() error {
	var ms []float64
	for i := range 5 {
		s := p.sp.begin("minijava.compile", -1, uint64(i))
		t0 := time.Now()
		_, err := minijava.CompileFiles(map[string]string{"input.mj": p.w.source})
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		p.sp.end(s)
		if err != nil {
			return err
		}
	}
	p.metrics["minijava.compile_ms"] = overRounds("ms", ms)
	return nil
}

// corpus: verifier.Verify and transform.Analyze+Transform on the seeded
// 8,200-class library, the paper-scale input of app.local's set-up.
func (p *layerPass) corpus() error {
	params := corpus.JDKLike()
	params.Seed = p.seed
	s := p.sp.begin("corpus.generate", -1, 0)
	prog := corpus.Generate(params)
	p.sp.end(s)
	var verifyMs, transformMs []float64
	var out *transform.Result
	for i := range 3 {
		s := p.sp.begin("verifier.verify", -1, uint64(i))
		t0 := time.Now()
		errs := verifier.Verify(prog)
		verifyMs = append(verifyMs, time.Since(t0).Seconds()*1e3)
		p.sp.end(s)
		if len(errs) > 0 {
			return fmt.Errorf("corpus verify: %v", errs[0])
		}
		s = p.sp.begin("transform.transform", -1, uint64(i))
		t0 = time.Now()
		a := p.sp.begin("transform.analyze", s, uint64(i))
		transform.Analyze(prog)
		p.sp.end(a)
		res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
		transformMs = append(transformMs, time.Since(t0).Seconds()*1e3)
		p.sp.end(s)
		if err != nil {
			return err
		}
		out = res
	}
	p.metrics["verifier.verify_ms"] = overRounds("ms", verifyMs)
	tm := overRounds("ms", transformMs)
	p.metrics["transform.transform_ms"] = tm
	p.set("transform.classes_per_s", "classes/s", float64(prog.Len())/(tm.Value/1e3))
	p.set("transform.generated_classes", "count", float64(out.Program.Len()))
	return nil
}

func vmValue(a any) vm.Value {
	switch t := a.(type) {
	case int:
		return vm.IntV(int64(t))
	case int64:
		return vm.IntV(t)
	case string:
		return vm.StringV(t)
	}
	panic(fmt.Sprintf("bench: unsupported argument %T", a))
}

func wireValue(a any) wire.Value {
	switch t := a.(type) {
	case int:
		return wire.Value{Kind: wire.KInt, Int: int64(t)}
	case int64:
		return wire.Value{Kind: wire.KInt, Int: t}
	case string:
		return wire.Value{Kind: wire.KString, Str: t}
	}
	panic(fmt.Sprintf("bench: unsupported argument %T", a))
}

// want is call i's expected result: the ring's, or i+1 for a counter.
func (p *layerPass) want(i int) any {
	if p.w.counter {
		return int64(i + 1)
	}
	return p.ring[i%len(p.ring)].want
}

// interpreter: VM.Invoke of the workload's method on the original
// program and on the transformed one bound all-local.
func (p *layerPass) interpreter() error {
	measure := func(name string, prog *ir.Program, bind func(*vm.VM), setupClass string) (probe, error) {
		m, err := vm.New(prog, vm.WithMaxSteps(maxSteps))
		if err != nil {
			return probe{}, err
		}
		bind(m)
		obj, err := m.Invoke(setupClass, "make", vm.Value{}, []vm.Value{vm.IntV(int64(p.seed))})
		if err != nil {
			return probe{}, err
		}
		args := make([][]vm.Value, len(p.ring))
		for i, k := range p.ring {
			for _, a := range k.args {
				args[i] = append(args[i], vmValue(a))
			}
		}
		class := obj.O.ClassName()
		return p.timed(name, p.unit, 1, func(i int) error {
			got, err := m.Invoke(class, p.w.method, obj, args[i%len(args)])
			if err != nil {
				return err
			}
			if want := vmValue(p.want(i)); got.I != want.I || got.S != want.S {
				p.failed++
			}
			return nil
		})
	}
	prog, err := minijava.Compile(p.w.source)
	if err != nil {
		return err
	}
	orig, err := measure("vm.orig", prog.Clone(), func(*vm.VM) {}, "Setup")
	if err != nil {
		return err
	}
	res, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
	if err != nil {
		return err
	}
	local, err := measure("vm.local", res.Program, func(m *vm.VM) { transform.BindLocal(m, res) }, transform.CFactory("Setup"))
	if err != nil {
		return err
	}
	p.set("vm.orig_ns_per_op", "ns", orig.nsPerOp())
	p.set("vm.local_ns_per_op", "ns", local.nsPerOp())
	p.set("vm.transform_overhead_ratio", "ratio", local.nsPerOp()/orig.nsPerOp())
	p.set("vm.allocs_per_op", "allocs", local.allocs)
	return nil
}

// variant is the workload reshaped for a layer probe: loopback, no
// corpus, no migrator, the given number of servers and callers.
func (p *layerPass) variant(servers, callers int) *workload {
	w := *p.w
	w.servers, w.callers, w.net, w.corpus, w.migrateEvery = servers, callers, rafda.NetProfile{}, false, 0
	return &w
}

// isolated deploys a variant of the workload over proto.
func (p *layerPass) isolated(servers, callers int, proto string) (*deployment, error) {
	d, err := p.variant(servers, callers).setup(p.seed, proto)
	if err != nil {
		return nil, err
	}
	for _, c := range d.callers {
		c.ring = p.ring
	}
	return d, nil
}

// callOnce is one verified call through the public node API.
func (p *layerPass) callOnce(c *caller, i int) error {
	k := &c.ring[i%len(c.ring)]
	got, err := c.node.CallOn(c.ref, p.w.method, k.args...)
	if err != nil {
		return err
	}
	if p.w.check(c, k, got, 0) {
		c.acked++
	} else {
		p.failed++
	}
	return nil
}

// node: Node.CallOn on a local object, then the same calls node to node
// over the inproc transport — the whole node path with no wire and no
// TCP — serially for the cost and from two callers at once for the
// refusals concurrency provokes.
func (p *layerPass) node() error {
	d, err := p.isolated(0, 1, "rrp")
	if err != nil {
		return err
	}
	local, err := p.timed("node.local", p.unit, 1, func(i int) error { return p.callOnce(d.callers[0], i) })
	d.close()
	if err != nil {
		return err
	}
	if d, err = p.isolated(1, 2, "inproc"); err != nil {
		return err
	}
	defer d.close()
	inproc, err := p.timed("node.inproc", p.unit, 1, func(i int) error { return p.callOnce(d.callers[0], i) })
	if err != nil {
		return err
	}
	p.set("node.local_ns_per_op", "ns", local.nsPerOp())
	p.set("node.inproc_ns_per_op", "ns", inproc.nsPerOp())
	p.set("node.allocs_per_op", "allocs", inproc.allocs)

	var measuring atomic.Bool
	states, stopLoops := startLoops(p.w, d.callers, &measuring, runOpts{})
	time.Sleep(p.unit)
	stopLoops()
	var retired, others, attempted int64
	for _, st := range states {
		attempted += st.ok.Load() + st.failed.Load()
		retired += st.fails[failRetired]
		others += st.failed.Load() - st.fails[failRetired]
		if st.firstErr != "" && len(p.notes) < 8 {
			p.notes = append(p.notes, "node.inproc x2: "+st.firstErr)
		}
	}
	// Known finding (README): concurrent callers over inproc see fresh
	// calls refused as retired duplicates.  It is reported as its own
	// metric, not as a failure of the workload.
	p.set("node.inproc_retired_refusals", "count", float64(retired))
	p.set("node.inproc_concurrent_calls", "count", float64(attempted))
	p.attempted += attempted - retired
	p.failed += others
	return nil
}

// migrate: one object bounced between two servers through the client's
// proxy, a verified call after every move.
func (p *layerPass) migrate() error {
	d, err := p.isolated(2, 1, "rrp")
	if err != nil {
		return err
	}
	defer d.close()
	c := d.callers[0]
	root := p.sp.begin("node.migrate", -1, 0)
	var us []float64
	start := time.Now()
	for i := 0; time.Since(start) < p.unit; i++ {
		s := p.sp.begin("node.migrate.call", root, uint64(i))
		t0 := time.Now()
		err := d.nodes[0].Migrate(c.ref, d.servers[(i+1)%2])
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		p.sp.end(s)
		if err != nil {
			return fmt.Errorf("node.migrate %d: %w", i, err)
		}
		p.attempted++
		if err := p.callOnce(c, i); err != nil {
			return fmt.Errorf("call after migration %d: %w", i, err)
		}
	}
	p.sp.end(root)
	var hops uint64
	for _, n := range d.nodes[1:] {
		hops += n.Stats().RemoteCallsOut
	}
	p.metrics["node.migrate_p50_us"] = overRounds("us", us)
	p.set("node.forward_hops", "hops/migration", float64(hops)/float64(len(us)))
	return nil
}

// frames builds the request and response the node layer would put on
// the wire for ring call i: token and trace extension present.
func (p *layerPass) frames(i int) (*wire.Request, *wire.Response) {
	req := &wire.Request{
		ID: uint64(i + 1), Op: wire.OpInvoke, GUID: "server#1", Method: p.w.method,
		Caller: "rrp://127.0.0.1:40000",
		Token:  &wire.CallToken{Caller: "client!2", Seq: uint64(i + 1), Ack: uint64(i)},
		Trace:  wire.TraceContext{Trace: 0x1234567890abcdef, Span: uint64(i + 1)},
	}
	for _, a := range p.ring[i%len(p.ring)].args {
		req.Args = append(req.Args, wireValue(a))
	}
	return req, &wire.Response{ID: req.ID, Result: wireValue(p.want(i))}
}

// batch is how many sub-microsecond calls share one span.
const batch = 1024

func (p *layerPass) wire() error {
	req, resp := p.frames(0)
	var reqBuf, respBuf []byte
	pr, err := p.timed("wire.codec", p.unit/2, batch, func(int) error {
		reqBuf = wire.AppendRequest(reqBuf[:0], req)
		gotReq, err := wire.DecodeRequestBytes(reqBuf)
		if err != nil {
			return err
		}
		respBuf = wire.AppendResponse(respBuf[:0], resp)
		gotResp, err := wire.DecodeResponseBytes(respBuf)
		if err != nil {
			return err
		}
		if gotReq.Method != req.Method || gotReq.Token.Seq != req.Token.Seq ||
			gotResp.Result.Int != resp.Result.Int || gotResp.Result.Str != resp.Result.Str {
			p.failed++
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("wire.codec_ns_per_call", "ns", pr.nsPerOp())
	p.set("wire.allocs_per_call", "allocs", pr.allocs)
	p.set("wire.req_bytes", "B", float64(len(reqBuf)))
	p.set("wire.resp_bytes", "B", float64(len(respBuf)))
	return nil
}

func (p *layerPass) dedup() error {
	req, resp := p.frames(0)
	issuer, table := dedup.NewIssuer("client!2"), dedup.NewTable(0)
	pr, err := p.timed("dedup.window", p.unit/2, batch, func(int) error {
		seq := issuer.Stamp(req)
		e, verdict := table.Begin(req.Token, req.GUID)
		if verdict != dedup.Execute {
			p.failed++
			return nil
		}
		table.Complete(req.Token.Caller, e, resp)
		issuer.Finish(seq)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("dedup.ns_per_call", "ns", pr.nsPerOp())
	p.set("dedup.allocs_per_call", "allocs", pr.allocs)
	return nil
}

func (p *layerPass) intercept() error {
	req, resp := p.frames(0)
	root := func(*intercept.CallCtx) (*wire.Response, error) { return resp, nil }
	pass := func(cc *intercept.CallCtx, next intercept.Handler) (*wire.Response, error) { return next(cc) }
	for _, c := range []struct {
		suffix string
		chain  *intercept.Chain
	}{{"_bare", intercept.New(root)}, {"", intercept.New(root, pass, pass, pass)}} {
		pr, err := p.timed("intercept.dispatch"+c.suffix, p.unit/4, batch, func(int) error {
			if c.chain.Dispatch(req) != resp {
				p.failed++
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.set("intercept.ns_per_dispatch"+c.suffix, "ns", pr.nsPerOp())
		p.set("intercept.allocs_per_dispatch"+c.suffix, "allocs", pr.allocs)
	}
	return nil
}

func (p *layerPass) trace() error {
	rec := trace.New("bench", 0)
	id := rec.NewID()
	pr, err := p.timed("trace.span", p.unit/2, batch, func(i int) error {
		sp := rec.NewSpan()
		sp.Trace, sp.ID, sp.Kind, sp.Name, sp.Dur = id, rec.NewID(), trace.KindClient, p.w.method, int64(i)
		rec.Emit(sp)
		return nil
	})
	if err != nil {
		return err
	}
	if rec.Emitted() != uint64(pr.n) {
		p.failed++
	}
	p.set("trace.ns_per_span", "ns", pr.nsPerOp())
	p.set("trace.allocs_per_span", "allocs", pr.allocs)
	return nil
}

// transport: a bare rrp listener with a Go handler answering
// workload-shaped frames — serial, 8 in flight, and serial again under
// the LAN profile, whose extra round-trip time is netsim's.
func (p *layerPass) transport() error {
	_, shaped := p.frames(0)
	handler := func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Result: shaped.Result}
	}
	reqs := make([]*wire.Request, len(p.ring))
	for i := range reqs {
		reqs[i], _ = p.frames(i)
	}
	serial := func(name string, profile netsim.Profile) (probe, error) {
		tr := transport.NewRRP(transport.Options{Profile: profile})
		srv, err := tr.Listen("", handler)
		if err != nil {
			return probe{}, err
		}
		defer srv.Close()
		cl, err := tr.Dial(srv.Endpoint())
		if err != nil {
			return probe{}, err
		}
		defer cl.Close()
		call := func(i int) error {
			req := *reqs[i%len(reqs)] // the client stamps its own id on the request
			resp, err := cl.Call(&req)
			if err != nil {
				return err
			}
			if resp.Result.Int != shaped.Result.Int || len(resp.Result.Str) != len(shaped.Result.Str) {
				p.failed++
			}
			return nil
		}
		pr, err := p.timed(name, p.unit, 1, call)
		if err != nil || profile != (netsim.Profile{}) {
			return pr, err
		}
		// 8 in flight on the same connection.
		var wg sync.WaitGroup
		var done, bad atomic.Int64
		var firstErr atomic.Value
		root := p.sp.begin("transport.inflight8", -1, 0)
		start := time.Now()
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; time.Since(start) < p.unit; i += 8 {
					req := *reqs[i%len(reqs)]
					s := -1
					if i < spanQuota {
						s = p.sp.begin("transport.inflight8.call", root, uint64(i))
					}
					resp, err := cl.Call(&req)
					p.sp.end(s)
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					if resp.Result.Int != shaped.Result.Int || len(resp.Result.Str) != len(shaped.Result.Str) {
						bad.Add(1)
					}
					done.Add(1)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		p.sp.end(root)
		if err, _ := firstErr.Load().(error); err != nil {
			return probe{}, fmt.Errorf("transport.inflight8: %w", err)
		}
		p.attempted += done.Load()
		p.failed += bad.Load()
		p.set("transport.calls_per_s_inflight8", "calls/s", float64(done.Load())/elapsed.Seconds())
		return pr, nil
	}
	loop, err := serial("transport.rtt", netsim.Profile{})
	if err != nil {
		return err
	}
	stopPump := startTimerPump()
	lan, err := serial("transport.rtt_lan", netsim.Profile{Latency: rafda.NetLAN.Latency, BandwidthBps: rafda.NetLAN.BandwidthBps, Seed: 1})
	stopPump()
	if err != nil {
		return err
	}
	p.set("transport.rtt_p50_ns", "ns", loop.p50)
	p.set("transport.allocs_per_call", "allocs", loop.allocs)
	p.set("netsim.added_rtt_us", "us", (lan.p50-loop.p50)/1e3)
	return nil
}

// ledger: the workload's call from one serial caller over a loopback
// rrp pair, beside the sum of the node path (inproc) and the bare
// transport round trip.  The residual is what the parts do not explain.
func (p *layerPass) ledger() error {
	res, err := p.variant(1, p.w.callers).run(runOpts{seed: p.seed, rounds: 3, warm: p.unit / 6, slice: p.unit / 2, serialOne: true})
	if err != nil {
		return err
	}
	p.attempted += res.Attempted
	p.failed += res.Failed
	e2e := res.Metrics["call_p50_us"].Value
	sum := (p.metrics["node.inproc_ns_per_op"].Value + p.metrics["transport.rtt_p50_ns"].Value) / 1e3
	p.set("ledger.e2e_serial_us", "us", e2e)
	p.set("ledger.sum_us", "us", sum)
	p.set("ledger.residual_pct", "%", (e2e-sum)/e2e*100)
	return nil
}

// overhead: the workload end to end, untraced then with a harness span
// around every call.
func (p *layerPass) overhead() error {
	o := runOpts{seed: p.seed, rounds: 5, warm: p.unit / 10, slice: p.unit * 6 / 10}
	plain, err := p.w.run(o)
	if err != nil {
		return err
	}
	o.spans = p.sp
	traced, err := p.w.run(o)
	if err != nil {
		return err
	}
	for _, r := range []*runResult{plain, traced} {
		p.attempted += r.Attempted
		p.failed += r.Failed
		if r.FirstErr != "" {
			p.notes = append(p.notes, r.Workload+": "+r.FirstErr)
		}
	}
	a, b := plain.Metrics["calls_per_s"].Value, traced.Metrics["calls_per_s"].Value
	p.set("harness.trace_overhead_pct", "%", (a-b)/a*100)
	p.set("harness.spans_dropped", "count", float64(p.sp.dropped))
	return nil
}
