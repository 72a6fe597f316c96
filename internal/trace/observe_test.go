package trace

import (
	"fmt"
	"sync"
	"testing"

	"rafda/internal/metrics"
)

// keyedRows returns the snapshot rows of one registered family.
func keyedRows(reg *metrics.Registry, name string) []metrics.Row {
	var out []metrics.Row
	for _, r := range reg.Snapshot() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestObserveCallKeyedStats pins the keyed-histogram plane: per-op and
// per-tenant rows appear with exact counts, sorted by key, and
// percentile fields that bracket the observed durations.
func TestObserveCallKeyedStats(t *testing.T) {
	reg := metrics.New()
	r := NewIn(reg, "n", 64)
	for i := 0; i < 90; i++ {
		r.ObserveCall("get", "tenant-a", 1000) // 1µs
	}
	for i := 0; i < 10; i++ {
		r.ObserveCall("put", "tenant-b", 1_000_000) // 1ms
	}
	ops, tenants := keyedRows(reg, "trace.op"), keyedRows(reg, "trace.tenant")
	if len(ops) != 2 || len(tenants) != 2 {
		t.Fatalf("keyed rows: ops=%v tenants=%v", ops, tenants)
	}
	if ops[0].Key != "get" || ops[0].Value != 90 {
		t.Fatalf("get row wrong: %+v", ops)
	}
	if tenants[1].Key != "tenant-b" || tenants[1].Value != 10 {
		t.Fatalf("tenant row wrong: %+v", tenants)
	}
	// 1ms observations must land near 1000µs at p50 (log-linear error
	// is bounded at ~3%).
	p50 := ops[1].P50us
	if p50 < 900 || p50 > 1100 {
		t.Fatalf("put p50 = %vµs, want ≈1000µs", p50)
	}
	// The slow op dominates the tail of tenant-a? No — axes are
	// independent: tenant-a only ever saw 1µs calls.
	if tenants[0].Key != "tenant-a" || tenants[0].P999us > 100 {
		t.Fatalf("tenant-a tail polluted: %+v", tenants[0])
	}
}

// TestKeyedCardinalityCap floods one axis with unique keys and checks
// memory stays bounded: at most metrics.FamilyMax rows plus a "~other"
// overflow row that absorbs the excess.
func TestKeyedCardinalityCap(t *testing.T) {
	reg := metrics.New()
	r := NewIn(reg, "n", 64)
	const flood = metrics.FamilyMax * 3
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < flood/4; i++ {
				r.ObserveCall(fmt.Sprintf("m-%d-%d", g, i), "t", 500)
			}
		}(g)
	}
	wg.Wait()
	ops := keyedRows(reg, "trace.op")
	// Concurrent first-observations can overshoot the cap by a few.
	if len(ops) > metrics.FamilyMax+8 {
		t.Fatalf("cardinality cap failed: %d op rows", len(ops))
	}
	var total, other int64
	for _, row := range ops {
		total += row.Value
		if row.Key == metrics.Other {
			other = row.Value
		}
	}
	if total != flood {
		t.Fatalf("observations lost: %d of %d", total, flood)
	}
	if other == 0 {
		t.Fatal("overflow keys did not fold into ~other")
	}
	if ops[len(ops)-1].Key != metrics.Other {
		t.Fatalf("~other not last: %+v", ops[len(ops)-1])
	}
}
