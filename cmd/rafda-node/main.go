// Command rafda-node hosts one RAFDA address space: it loads a
// transformed program archive, starts transport servers, applies
// placement policy, and optionally runs the program entry point.
//
//	rafda-node -archive prog.transformed.rar \
//	    -serve rrp://127.0.0.1:7001 -serve soap://127.0.0.1:7002 \
//	    -place C=rrp://10.0.0.2:7001 -place Audit=soap://10.0.0.3:7002 \
//	    [-main Main] [-name node1] [-pool 4] [-adapt] [-adapt-window 250ms] \
//	    [-cluster] [-join rrp://10.0.0.2:7001] [-cluster-heartbeat 100ms] \
//	    [-cluster-propose] [-cluster-fanout 2] \
//	    [-pprof 127.0.0.1:6060] [-trace-spans 8192] [-no-trace] [-max-inflight 256] \
//	    [-dedup-window 1024] [-shed-priority-at 64] [-shed-fairshare-at 64] \
//	    [-codel-target 5ms] [-codel-interval 100ms]
//
// Without -main the node serves until interrupted.  -adapt switches on
// the adaptive placement engine (docs/ADAPTIVE.md): the node watches
// its own call-affinity telemetry and redraws placements — migrating
// hot objects toward their dominant callers — printing each decision.
//
// -cluster (implied by -join) attaches the node to the cluster
// coordination plane (docs/CLUSTER.md): gossip membership with
// liveness, the shared placement directory (stale references resolve
// migrated objects in one hop), and intent reconciliation — adapter
// decisions are proposed to the cluster instead of executed
// unilaterally.  -cluster-propose additionally lets this node propose
// multi-hop migrations (move an object between two *other* nodes) from
// the gossiped affinity evidence.
//
// Observability (docs/OBSERVABILITY.md): the node always runs a
// bounded flight recorder of call spans unless -no-trace.  -pprof
// serves net/http/pprof plus /debug/rafda (the unified introspection
// snapshot, also reachable remotely via rafdac; ?section=events is the
// control log of adapt decisions and cluster events), and SIGQUIT dumps
// the metrics, control log and recorder to stderr without stopping the
// node.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rafda"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rafda-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var serves, places, joins multiFlag
	cfg := rafda.NodeConfig{Output: os.Stdout}
	archive := flag.String("archive", "", "transformed program archive (.rar)")
	flag.StringVar(&cfg.Name, "name", "node", "node name (appears in GUIDs)")
	mainClass := flag.String("main", "", "entry class to run after start (empty: serve only)")
	flag.Var(&serves, "serve", "endpoint to serve, proto://host:port (repeatable)")
	flag.Var(&places, "place", "placement rule Class=endpoint or Class=local (repeatable)")
	flag.IntVar(&cfg.PoolSize, "pool", 0, "connections pooled per peer endpoint (0: GOMAXPROCS, capped at 8; 1: single socket)")
	adaptOn := flag.Bool("adapt", false, "run the adaptive placement engine (docs/ADAPTIVE.md)")
	adaptWindow := flag.Duration("adapt-window", 250*time.Millisecond, "adaptive engine evaluation window")
	clusterOn := flag.Bool("cluster", false, "join the cluster coordination plane (docs/CLUSTER.md); implied by -join")
	flag.Var(&joins, "join", "seed endpoint of an existing cluster member (repeatable)")
	clusterHB := flag.Duration("cluster-heartbeat", 100*time.Millisecond, "cluster gossip period")
	clusterFanout := flag.Int("cluster-fanout", 2, "peers gossiped to per round")
	clusterPropose := flag.Bool("cluster-propose", false, "propose multi-hop migrations from gossiped affinity evidence")
	pprofAddr := flag.String("pprof", "", "debug HTTP address serving net/http/pprof and /debug/rafda (empty: off)")
	flag.IntVar(&cfg.Tracing.Spans, "trace-spans", 0, "flight recorder ring capacity (0: default 4096)")
	flag.BoolVar(&cfg.Tracing.Disable, "no-trace", false, "disable the distributed-tracing plane (docs/OBSERVABILITY.md)")
	flag.IntVar(&cfg.Limits.MaxInflight, "max-inflight", 0, "per-connection dispatch concurrency bound; with per-call deadlines this is the overload-control knob (0: default 256)")
	flag.IntVar(&cfg.Limits.DedupWindow, "dedup-window", 0, "per-caller replay cache entries for the exactly-once plane (0: default 1024)")
	flag.IntVar(&cfg.Shed.PriorityAt, "shed-priority-at", 0, "inflight depth where priority-class-0 requests are shed; class p survives to depth<<p (0: off; docs/INTERCEPT.md)")
	flag.IntVar(&cfg.Shed.FairShareAt, "shed-fairshare-at", 0, "inflight depth where tenants over their 1/active fair share are shed (0: off)")
	flag.DurationVar(&cfg.Shed.CoDelTarget, "codel-target", 0, "CoDel target for measured dispatch-slot wait (0: off)")
	flag.DurationVar(&cfg.Shed.CoDelInterval, "codel-interval", 0, "CoDel sliding window (0: default 100ms)")
	flag.Parse()

	if *archive == "" {
		return fmt.Errorf("-archive is required")
	}
	f, err := os.Open(*archive)
	if err != nil {
		return err
	}
	prog, err := rafda.Decode(f)
	f.Close()
	if err != nil {
		return err
	}
	// The archive may be pre-transformed (contains factories) or plain.
	tr, err := rafda.LoadTransformed(prog)
	if errors.Is(err, rafda.ErrNotTransformed) {
		tr, err = prog.Transform()
	}
	if err != nil {
		return err
	}

	node, err := tr.NewNode(cfg)
	if err != nil {
		return err
	}
	defer node.Close()

	// Debug surfaces: -pprof serves the standard net/http/pprof tree
	// plus /debug/rafda?section=metrics|events|spans|trace&id=<hex> — the
	// same snapshot wire.OpIntrospect serves remotely.  SIGQUIT dumps the
	// metrics, the control log and the flight recorder to stderr without
	// stopping the node (replacing the Go runtime's default
	// die-with-stacks behaviour).
	if *pprofAddr != "" {
		http.HandleFunc("/debug/rafda", func(w http.ResponseWriter, r *http.Request) {
			out, err := node.IntrospectJSON(r.URL.Query().Get("section"), r.URL.Query().Get("id"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, out)
		})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rafda-node: debug http:", err)
			}
		}()
		fmt.Printf("debug http on %s (/debug/pprof/, /debug/rafda)\n", *pprofAddr)
	}
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			dumpDebug(node)
		}
	}()

	for _, s := range serves {
		proto, addr, ok := strings.Cut(s, "://")
		if !ok {
			return fmt.Errorf("bad -serve %q (want proto://host:port)", s)
		}
		ep, err := node.Serve(proto, addr)
		if err != nil {
			return err
		}
		fmt.Printf("serving %s\n", ep)
	}
	for _, p := range places {
		class, endpoint, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("bad -place %q (want Class=endpoint)", p)
		}
		if err := node.PlaceClass(class, endpoint); err != nil {
			return err
		}
		fmt.Printf("placed %s -> %s\n", class, endpoint)
	}

	if *clusterOn || len(joins) > 0 {
		cl, err := node.JoinCluster(rafda.ClusterConfig{
			Seeds:     joins,
			Heartbeat: *clusterHB,
			Fanout:    *clusterFanout,
			Propose:   *clusterPropose,
			OnEvent: func(e rafda.ClusterEvent) {
				switch e.Kind {
				case "peer-join", "peer-suspect", "peer-dead", "peer-leave":
					fmt.Printf("cluster: %s %s (%s)\n", e.Kind, e.Peer, e.From)
				case "migrate", "migrate-fail":
					fmt.Printf("cluster: %s %s %s -> %s (%s)\n", e.Kind, e.GUID, e.From, e.To, e.Detail)
				case "propose", "intent":
					fmt.Printf("cluster: %s %s -> %s by %s (%s)\n", e.Kind, e.GUID, e.To, e.Peer, e.Detail)
				}
			},
		})
		if err != nil {
			return err
		}
		cl.Start()
		fmt.Printf("cluster membership active (%d seeds)\n", len(joins))
	}

	if *adaptOn {
		node.StartAdapter(rafda.AdaptConfig{
			Window:     *adaptWindow,
			OnDecision: func(d rafda.AdaptDecision) { fmt.Println(decisionLine(d)) },
		})
		fmt.Println("adaptive placement engine running")
	}

	if *mainClass != "" {
		if err := node.RunMain(*mainClass); err != nil {
			return err
		}
		st := node.Stats()
		fmt.Printf("done: %d remote calls out, %d served, %d created here\n",
			st.RemoteCallsOut, st.RemoteCallsIn, st.Creates)
		return nil
	}

	fmt.Println("serving; interrupt to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// dumpDebug writes the unified metrics snapshot, the control log and
// the flight recorder's ring to stderr — the SIGQUIT crash-cart view.
func dumpDebug(node *rafda.Node) {
	for _, section := range []string{"metrics", "events", "spans"} {
		out, err := node.IntrospectJSON(section, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rafda-node: dump %s: %v\n", section, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "=== rafda %s ===\n%s\n", section, out)
	}
}

// decisionLine formats one adapter decision for the -adapt log, with
// its Outcome in parentheses.
func decisionLine(d rafda.AdaptDecision) string {
	target := d.GUID
	if target == "" {
		target = "class " + d.Class
	}
	return fmt.Sprintf("adapt: %s %s -> %q (%s): %s", d.Kind, target, d.Endpoint, d.Outcome(), d.Reason)
}
