package main

import (
	"fmt"
	"math"
	"time"

	"rafda"
	"rafda/internal/corpus"
	"rafda/internal/transform"
	"rafda/internal/verifier"
)

// Every program under test exposes `Setup.make(int)` returning the
// object a caller drives; the workload names the method called on it.
const echoSource = `
class EchoSvc {
    string echo(string s) { return s; }
    int add(int a, int b) { return a + b; }
}
class Setup { static EchoSvc make(int seed) { return new EchoSvc(); } }
class Main { static void main() {} }`

// bankSource is the app.local program: one step() moves money 64 times
// between four Account objects — every deposit/withdraw crosses a
// generated _O_Int interface and get_/set_ accessors, and the scratch
// account is made through a factory — and returns the conserved total.
const bankSource = `
class Account {
    int balance;
    Account(int opening) { this.balance = opening; }
    void deposit(int n) { balance = balance + n; }
    void withdraw(int n) { balance = balance - n; }
}
class Driver {
    Account a; Account b; Account c; Account d;
    int salt;
    Driver(int salt) {
        this.salt = salt;
        this.a = new Account(1000); this.b = new Account(1000);
        this.c = new Account(1000); this.d = new Account(1000);
    }
    void move(Account from, Account to, int n) { from.withdraw(n); to.deposit(n); }
    int step() {
        Account scratch = new Account(0);
        for (int i = 0; i < 16; i = i + 1) {
            int n = (salt + i) % 7 + 1;
            move(a, b, n); move(b, scratch, n); move(scratch, c, n); move(c, d, n);
        }
        move(d, a, 16);
        salt = salt + 1;
        return a.balance + b.balance + c.balance + d.balance + scratch.balance;
    }
}
class Setup { static Driver make(int seed) { return new Driver(seed); } }
class Main { static void main() {} }`

const bankTotal = 4000

const counterSource = `
class Counter {
    int n;
    Counter() { this.n = 0; }
    int inc() { n = n + 1; return n; }
    int get() { return n; }
}
class Setup { static Counter make(int seed) { return new Counter(); } }
class Main { static void main() {} }`

// call is one pre-generated invocation: arguments and the result the
// program must return.  Rings of calls are built from the seed before
// timing starts, so the measured loop generates nothing.
type call struct {
	args []any
	want any // nil: the workload's check derives it (redistribute)
}

type workload struct {
	name   string
	why    string
	source string
	class  string // class of the object callers drive; placed on the first server
	method string
	// servers is the number of serving nodes besides the caller's own:
	// 0 runs everything on one node with no transport.
	servers int
	net     rafda.NetProfile
	pool    int
	callers int
	ring    int // distinct pre-generated calls per caller
	gen     func(r *rng) call
	// counter workloads return the caller's acknowledged call count + 1.
	counter bool
	// corpus adds the 8,200-class generate+verify+transform to set-up.
	corpus bool
	// migrateEvery > 0 bounces every object between the servers.
	migrateEvery time.Duration
}

var workloads = []workload{
	{
		name:    "rpc.small",
		why:     "smallest message: the fixed per-call path (token, codec, pool, link, chain, gate, interpreter) is all of the cost",
		source:  echoSource,
		class:   "EchoSvc",
		method:  "add",
		servers: 1, pool: 2, callers: 2, ring: 256,
		gen: func(r *rng) call {
			a, b := int(r.next()%1_000_000), int(r.next()%1_000_000)
			return call{args: []any{a, b}, want: int64(a + b)}
		},
	},
	{
		name:    "rpc.bulk",
		why:     "64 KiB payload: codec, frame buffers, copies and socket writes dominate and the fixed path is diluted",
		source:  echoSource,
		class:   "EchoSvc",
		method:  "echo",
		servers: 1, pool: 2, callers: 2, ring: 8,
		gen: func(r *rng) call {
			buf := make([]byte, 64<<10)
			for i := range buf {
				buf[i] = byte('a' + r.next()%26)
			}
			s := string(buf)
			return call{args: []any{s}, want: s}
		},
	},
	{
		name:    "rpc.lan",
		why:     "simulated LAN, 8 callers on one multiplexed connection: latency is the link RTT, so a per-call CPU saving must show no change here",
		source:  echoSource,
		class:   "EchoSvc",
		method:  "add",
		net:     rafda.NetLAN,
		servers: 1, pool: 1, callers: 8, ring: 256,
		gen: func(r *rng) call {
			a, b := int(r.next()%1_000_000), int(r.next()%1_000_000)
			return call{args: []any{a, b}, want: int64(a + b)}
		},
	},
	{
		name:    "app.local",
		why:     "the paper's local version: one node, no transport; the interpreter and the shape of generated code do all the work, wire and dedup none",
		source:  bankSource,
		class:   "Driver",
		method:  "step",
		callers: 2, ring: 1,
		gen:    func(*rng) call { return call{want: int64(bankTotal)} },
		corpus: true,
	},
	{
		name:    "redistribute",
		why:     "boundaries redrawn under load: every object bounces A<->B each 100 ms through the client's proxy while callers count exactly-once",
		source:  counterSource,
		class:   "Counter",
		method:  "inc",
		servers: 2, pool: 2, callers: 2, ring: 1,
		gen:          func(*rng) call { return call{} },
		counter:      true,
		migrateEvery: 100 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng is splitmix64: tiny, seedable, allocation-free.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// caller is one closed-loop client: it waits for each reply before
// sending the next call.
type caller struct {
	node  *rafda.Node
	ref   *rafda.Ref
	ring  []call
	acked int64 // calls acknowledged with the right result
}

// deployment is a set-up workload: nodes serving, classes placed,
// objects created, callers ready.
type deployment struct {
	w       *workload
	nodes   []*rafda.Node // nodes[0] is the callers' node
	servers []string      // serving endpoints of nodes[1:]
	callers []*caller
}

func (d *deployment) close() {
	for _, n := range d.nodes {
		_ = n.Close()
	}
}

// maxSteps lifts the VM's runaway-program budget, which a run of
// millions of calls would otherwise exhaust; every other NodeConfig
// field keeps the default users get.
const maxSteps = math.MaxInt64 / 2

// setup performs everything a deployer does before the first call:
// compile, verify, transform, boot and serve the nodes, place the class,
// create the objects.  proto is the serving protocol ("rrp" for every
// workload; the node layer probe passes "inproc").
func (w *workload) setup(seed uint64, proto string) (*deployment, error) {
	if w.corpus {
		if err := corpusPipeline(seed); err != nil {
			return nil, err
		}
	}
	prog, err := rafda.CompileString(w.source)
	if err != nil {
		return nil, err
	}
	if errs := prog.Verify(); len(errs) > 0 {
		return nil, fmt.Errorf("verify: %v", errs[0])
	}
	tr, err := prog.Transform(rafda.WithProtocols("inproc", "rrp"))
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	names := []string{"client", "server", "serverB"}
	for i := 0; i <= w.servers; i++ {
		n, err := tr.NewNode(rafda.NodeConfig{
			Name: names[i], Network: w.net, PoolSize: w.pool, MaxSteps: maxSteps,
		})
		if err != nil {
			return fail(err)
		}
		d.nodes = append(d.nodes, n)
		if w.servers == 0 {
			break
		}
		ep, err := n.Serve(proto, "")
		if err != nil {
			return fail(err)
		}
		if i > 0 {
			d.servers = append(d.servers, ep)
		}
	}
	client := d.nodes[0]
	if w.servers > 0 {
		// The object's class lives on the first server; Setup stays local.
		if err := client.PlaceClass(w.class, d.servers[0]); err != nil {
			return fail(err)
		}
	}
	// Objects are created in caller order, so their GUIDs ("server#1",
	// "server#2", ...) and with them the pool's FNV shard routing are the
	// same on every run; consecutive GUIDs differ in the low bit of the
	// hash, so two callers always use both connections of a 2-wide pool.
	for c := 0; c < w.callers; c++ {
		obj, err := client.Call("Setup", "make", int(seed))
		if err != nil {
			return fail(err)
		}
		d.callers = append(d.callers, &caller{node: client, ref: obj.(*rafda.Ref)})
	}
	return d, nil
}

// rings generates each caller's calls from the seed: harness work, kept
// out of the timed set-up.
func (w *workload) rings(seed uint64) [][]call {
	out := make([][]call, w.callers)
	for c := range out {
		r := &rng{s: seed<<8 | uint64(c)}
		for i := 0; i < w.ring; i++ {
			out[c] = append(out[c], w.gen(r))
		}
	}
	return out
}

// corpusPipeline is the paper-scale part of app.local's set-up: generate
// a JDK-1.4.1-sized library, verify it and transform it.
func corpusPipeline(seed uint64) error {
	p := corpus.JDKLike()
	p.Seed = seed
	prog := corpus.Generate(p)
	if errs := verifier.Verify(prog); len(errs) > 0 {
		return fmt.Errorf("corpus verify: %v", errs[0])
	}
	_, err := transform.Transform(prog, transform.Options{Protocols: []string{"rrp"}})
	return err
}
