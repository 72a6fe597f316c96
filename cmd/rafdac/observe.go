package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"rafda"
	"rafda/internal/metrics"
	"rafda/internal/node"
	"rafda/internal/trace"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// Observability views (docs/OBSERVABILITY.md): "rafdac trace" and
// "rafdac top" pull nodes' flight recorders and unified metrics over
// the effect-free wire.OpIntrospect op and render them — a trace as a
// causally-ordered span tree assembled across every queried node, top
// as every row of each node's metrics registry.

// cmdTrace assembles and prints one distributed call trace: every
// -node is asked for its spans of the given hex trace id, and the
// union is printed as a parent/child tree in causal order.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var nodes multiFlag
	fs.Var(&nodes, "node", "endpoint of a node to query, proto://host:port (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("trace needs at least one -node endpoint")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rafdac trace -node ep [-node ep...] <hex-trace-id>")
	}
	id := fs.Arg(0)
	var spans []trace.Span
	for _, ep := range nodes {
		out, err := rafda.IntrospectEndpoint(ep, "trace", id)
		if err != nil {
			return err
		}
		var part []trace.Span
		if err := json.Unmarshal([]byte(out), &part); err != nil {
			return fmt.Errorf("%s: bad trace payload: %w", ep, err)
		}
		spans = append(spans, part...)
	}
	if len(spans) == 0 {
		fmt.Printf("trace %s: no spans at %d node(s) (evicted from the ring, or wrong id?)\n", id, len(nodes))
		return nil
	}
	printTree(id, spans)
	return nil
}

// printTree renders spans as an indented causal tree.  A span whose
// parent is unknown (rolled out of some ring) prints as a root marked
// detached, so partial traces stay readable.
func printTree(id string, spans []trace.Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	known := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		known[s.ID] = true
	}
	children := make(map[uint64][]trace.Span)
	var roots []trace.Span
	for _, s := range spans {
		if s.Parent != 0 && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	nodes := make(map[string]bool)
	for _, s := range spans {
		nodes[s.Node] = true
	}
	fmt.Printf("trace %s: %d span(s) across %d node(s)\n", id, len(spans), len(nodes))
	var walk func(s trace.Span, depth int)
	walk = func(s trace.Span, depth int) {
		for i := 0; i < depth; i++ {
			fmt.Print("  ")
		}
		line := fmt.Sprintf("%s %s @%s", s.Kind, s.Name, s.Node)
		if s.Target != "" {
			line += " -> " + s.Target
		}
		if s.Queue > 0 {
			line += fmt.Sprintf("  queue %v", time.Duration(s.Queue).Round(time.Microsecond))
		}
		if s.Dur > 0 {
			line += fmt.Sprintf("  run %v", time.Duration(s.Dur).Round(time.Microsecond))
		}
		if s.Note != "" {
			line += "  [" + s.Note + "]"
		}
		if s.Err != "" {
			line += "  ERR " + s.Err
		}
		fmt.Println(line)
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		if r.Parent != 0 {
			fmt.Printf("(detached: parent %x not in any queried ring)\n", r.Parent)
		}
		walk(r, 1)
	}
}

// cmdTop prints each node's unified metrics snapshot: every instrument
// of its registry — activity, dedup, overload and shed counters and
// gauges, then the per-kind, per-op and per-tenant latency digests.
// With -watch it re-polls at the given interval and redraws in place,
// so an operator can watch the overload counters and tail percentiles
// move under load.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	var nodes multiFlag
	fs.Var(&nodes, "node", "endpoint of a node to query, proto://host:port (repeatable)")
	watch := fs.Duration("watch", 0, "re-poll and redraw in place at this interval (0 = print once)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("top needs at least one -node endpoint")
	}
	if *watch <= 0 {
		return topOnce(os.Stdout, nodes)
	}
	for {
		// Clear screen and home the cursor before each frame so the
		// display updates in place rather than scrolling.
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("rafdac top  every %v  %s\n\n", *watch, time.Now().Format("15:04:05"))
		if err := topOnce(os.Stdout, nodes); err != nil {
			return err
		}
		time.Sleep(*watch)
	}
}

// topOnce polls every node and writes one frame to w.  Rows render by
// kind alone, so an instrument a plane adds shows up here unchanged.
func topOnce(w io.Writer, nodes []string) error {
	for _, ep := range nodes {
		out, err := rafda.IntrospectEndpoint(ep, "metrics", "")
		if err != nil {
			return err
		}
		var in node.Introspection
		if err := json.Unmarshal([]byte(out), &in); err != nil {
			return fmt.Errorf("%s: bad metrics payload: %w", ep, err)
		}
		fmt.Fprintf(w, "%s (%s)  exports %d\n", in.Node, ep, in.Exports)
		if in.Trace == nil {
			fmt.Fprintln(w, "  tracing disabled")
		} else {
			fmt.Fprintf(w, "  recorder %d/%d spans (%d emitted)\n", in.Trace.Spans, in.Trace.Capacity, in.Trace.Emitted)
		}
		var hists []metrics.Row
		for _, r := range in.Metrics {
			switch r.Kind {
			case "hist":
				hists = append(hists, r)
			case "gauge":
				fmt.Fprintf(w, "  %-26s %-22s %9d  (high %d)\n", r.Name, r.Key, r.Value, r.High)
			default:
				fmt.Fprintf(w, "  %-26s %-22s %9d\n", r.Name, r.Key, r.Value)
			}
		}
		if len(hists) > 0 {
			fmt.Fprintf(w, "  %-26s %-22s %9s %10s %10s %10s %10s\n", "latency", "key", "count", "p50", "p99", "p999", "max")
		}
		for _, r := range hists {
			fmt.Fprintf(w, "  %-26s %-22s %9d %8.1fµs %8.1fµs %8.1fµs %8.1fµs\n",
				r.Name, r.Key, r.Value, r.P50us, r.P99us, r.P999us, r.MaxUs)
		}
	}
	return nil
}
