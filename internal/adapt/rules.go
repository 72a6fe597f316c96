package adapt

import (
	"fmt"
	"sort"
	"strings"
)

// defaultRules returns the built-in rule set: per-object call-affinity
// migration, the two class-placement flips (pull-local and push-remote),
// and read-replication of read-mostly objects.
func defaultRules(cfg Config) []Rule {
	return []Rule{
		&AffinityRule{Threshold: cfg.Threshold, MinCalls: cfg.MinCalls},
		&ClassPullRule{Threshold: cfg.Threshold, MinCalls: cfg.MinCalls},
		&ClassPushRule{Threshold: cfg.Threshold, MinCalls: cfg.MinCalls},
		&ReplicateRule{MinCalls: cfg.MinCalls, MigrateThreshold: cfg.Threshold},
	}
}

// dominant returns the endpoint with the highest count and that count,
// with a deterministic (lexicographic) tie-break.
func dominant(m map[string]uint64) (string, uint64) {
	var eps []string
	for ep := range m {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	var bestEp string
	var best uint64
	for _, ep := range eps {
		if m[ep] > best {
			bestEp, best = ep, m[ep]
		}
	}
	return bestEp, best
}

// AffinityRule implements the paper-style object rule: an object that
// receives more than Threshold of its window's calls from one remote
// endpoint migrates to that endpoint, turning its hot remote
// invocations into local ones.
type AffinityRule struct {
	Threshold float64
	MinCalls  uint64
}

// Name implements Rule.
func (r *AffinityRule) Name() string { return "affinity" }

// Evaluate implements Rule.
func (r *AffinityRule) Evaluate(v *View) []Proposal {
	var out []Proposal
	for _, w := range v.Objects {
		if !w.Migratable {
			continue // proxies and statics singletons cannot move
		}
		total := w.Calls()
		if total < r.MinCalls {
			continue
		}
		ep, n := dominant(w.Callers)
		if ep == "" || v.Self[ep] {
			continue
		}
		share := float64(n) / float64(total)
		if share < r.Threshold {
			continue
		}
		out = append(out, Proposal{
			Kind:     KindMigrate,
			Obj:      w.Obj,
			GUID:     w.GUID,
			Class:    w.Class,
			Endpoint: ep,
			Priority: int64(n),
			Reason: fmt.Sprintf("object received %d/%d calls (%.0f%%) from %s this window",
				n, total, 100*share, ep),
		})
	}
	return out
}

// ReplicateRule is migration's sibling for the workload shape affinity
// cannot improve: a read-mostly object whose calls are spread across
// several remote endpoints.  Moving it chases one caller and abandons
// the rest; replicating it gives each hot caller a local read copy
// while this node stays the lease-holding primary for writes
// (docs/REPLICATION.md).  Eligibility is driven by the telemetry
// plane's effect counters — reads and writes as classified by the
// verifier's method-effect analysis — and the per-endpoint caller
// affinity counters:
//
//   - the object is a live local instance and not already replicated;
//   - window activity ≥ MinCalls, with at least one classified read;
//   - writes / (reads + writes) ≤ maxWriteShare — every write fans out
//     to all replicas synchronously, so write-heavy objects lose;
//   - no single remote endpoint exceeds MigrateThreshold of the
//     window's calls: that shape is the affinity rule's territory, and
//     a whole-object migration beats pinning a replica set there.
//
// The proposal targets the top-replicaFanout remote caller endpoints by
// call count (deterministic tie-break), sorted into Endpoints with
// their canonical join in Endpoint so hysteresis restarts when the hot
// set shifts.
type ReplicateRule struct {
	MinCalls uint64
	// MigrateThreshold is the dominant-caller share above which the rule
	// abstains in favour of migration.
	MigrateThreshold float64
}

// Name implements Rule.
func (r *ReplicateRule) Name() string { return "replicate" }

// Evaluate implements Rule.
func (r *ReplicateRule) Evaluate(v *View) []Proposal {
	var out []Proposal
	for _, w := range v.Objects {
		if !w.Migratable || w.Replicated {
			continue
		}
		total := w.Calls()
		if total < r.MinCalls {
			continue
		}
		classified := w.Reads + w.Writes
		if classified == 0 || w.Reads == 0 {
			continue // nothing provably read-only to scale
		}
		if float64(w.Writes)/float64(classified) > maxWriteShare {
			continue
		}
		// Remote callers by window calls, heaviest first (lexicographic
		// tie-break keeps the proposal deterministic).
		type epCalls struct {
			ep string
			n  uint64
		}
		var remote []epCalls
		for ep, n := range w.Callers {
			if ep == "" || v.Self[ep] {
				continue
			}
			remote = append(remote, epCalls{ep, n})
		}
		if len(remote) == 0 {
			continue
		}
		sort.Slice(remote, func(i, j int) bool {
			if remote[i].n != remote[j].n {
				return remote[i].n > remote[j].n
			}
			return remote[i].ep < remote[j].ep
		})
		if float64(remote[0].n)/float64(total) >= r.MigrateThreshold {
			continue // one dominant caller: migration's territory
		}
		eps := make([]string, 0, replicaFanout)
		var covered uint64
		for _, rc := range remote[:min(replicaFanout, len(remote))] {
			eps = append(eps, rc.ep)
			covered += rc.n
		}
		sort.Strings(eps)
		out = append(out, Proposal{
			Kind:      KindReplicate,
			Obj:       w.Obj,
			GUID:      w.GUID,
			Class:     w.Class,
			Endpoint:  strings.Join(eps, ","),
			Endpoints: eps,
			Priority:  int64(covered),
			Reason: fmt.Sprintf("read-mostly object (%d reads / %d writes) spread over %d remote callers; replicating to top %d (%d/%d calls)",
				w.Reads, w.Writes, len(remote), len(eps), covered, total),
		})
	}
	return out
}

// ClassPullRule flips a remotely-placed class back to local when this
// node is the class's dominant user: it creates the instances at the
// remote placement and then pays a remote round trip for nearly every
// call it makes on them.  After the flip, future creations and
// discoveries are local (existing instances are the AffinityRule's
// job — on their home node).
type ClassPullRule struct {
	Threshold float64
	MinCalls  uint64
}

// Name implements Rule.
func (r *ClassPullRule) Name() string { return "class-pull" }

// Evaluate implements Rule.
func (r *ClassPullRule) Evaluate(v *View) []Proposal {
	var out []Proposal
	for _, w := range v.Classes {
		if w.PlacedAt == "" {
			continue // already local
		}
		var total uint64
		for _, n := range w.OutCalls {
			total += n
		}
		if total < r.MinCalls {
			continue
		}
		ep, n := dominant(w.OutCalls)
		if ep != w.PlacedAt {
			continue // the traffic is not going where the policy points
		}
		share := float64(n) / float64(total)
		if share < r.Threshold {
			continue
		}
		out = append(out, Proposal{
			Kind:  KindPlaceClass,
			Class: w.Class,
			// Endpoint "" = local placement.
			Reason: fmt.Sprintf("this node made %d/%d (%.0f%%) of the class's proxy calls to its placement %s",
				n, total, 100*share, ep),
		})
	}
	return out
}

// ClassPushRule flips a locally-placed class toward the remote endpoint
// that dominates its use: when one peer performs more than Threshold of
// the class's creations-plus-invocations served here, future creations
// should happen at that peer directly — the §4 "constructed mostly under
// remote callers" boundary redraw.
type ClassPushRule struct {
	Threshold float64
	MinCalls  uint64
}

// Name implements Rule.
func (r *ClassPushRule) Name() string { return "class-push" }

// Evaluate implements Rule.
func (r *ClassPushRule) Evaluate(v *View) []Proposal {
	// Aggregate inbound invocations per class across this node's
	// objects (the telemetry plane attributes them per object).
	inCalls := map[string]map[string]uint64{}
	inTotal := map[string]uint64{}
	for _, w := range v.Objects {
		m := inCalls[w.Class]
		if m == nil {
			m = map[string]uint64{}
			inCalls[w.Class] = m
		}
		for ep, n := range w.Callers {
			m[ep] += n
		}
		inTotal[w.Class] += w.Calls()
	}

	var out []Proposal
	for _, w := range v.Classes {
		if w.PlacedAt != "" {
			continue // only locally-placed classes push away
		}
		byEp := map[string]uint64{}
		var total uint64
		for ep, n := range w.ServedCreates {
			byEp[ep] += n
			total += n
		}
		total += w.LocalCreates + w.ServedAnon
		for ep, n := range inCalls[w.Class] {
			byEp[ep] += n
		}
		total += inTotal[w.Class]
		if total < r.MinCalls {
			continue
		}
		ep, n := dominant(byEp)
		if ep == "" || v.Self[ep] {
			continue
		}
		share := float64(n) / float64(total)
		if share < r.Threshold {
			continue
		}
		out = append(out, Proposal{
			Kind:     KindPlaceClass,
			Class:    w.Class,
			Endpoint: ep,
			Reason: fmt.Sprintf("%s drove %d/%d (%.0f%%) of the class's creations and calls served here",
				ep, n, total, 100*share),
		})
	}
	return out
}
