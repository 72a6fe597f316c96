package policy

import (
	"fmt"
	"sync"
	"testing"
)

func TestDefaultIsLocal(t *testing.T) {
	tab := NewTable()
	pl, ver := tab.For("Anything")
	if pl.Kind != Local || ver != 0 {
		t.Fatalf("default: %+v ver=%d", pl, ver)
	}
}

func TestRulesAndVersioning(t *testing.T) {
	tab := NewTable()
	remote, err := RemoteAt("rrp://10.0.0.1:7")
	if err != nil {
		t.Fatal(err)
	}
	if remote.Kind != Remote || remote.Endpoint != "rrp://10.0.0.1:7" {
		t.Fatalf("%+v", remote)
	}
	tab.SetClass("C", remote)
	pl, v1 := tab.For("C")
	if pl.Kind != Remote {
		t.Fatal("rule not applied")
	}
	if other, _ := tab.For("D"); other.Kind != Local {
		t.Fatal("rule leaked")
	}
	tab.SetClass("C", LocalPlacement)
	pl, v2 := tab.For("C")
	if pl.Kind != Local || v2 <= v1 {
		t.Fatalf("re-place local: %+v v1=%d v2=%d", pl, v1, v2)
	}
	tab.SetDefault(remote)
	if pl, _ := tab.For("Anything"); pl.Kind != Remote {
		t.Fatal("default not applied")
	}
}

func TestRemoteAtRejectsGarbage(t *testing.T) {
	if _, err := RemoteAt("not-an-endpoint"); err == nil {
		t.Fatal("garbage endpoint accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tab := NewTable()
	remote, _ := RemoteAt("rrp://h:1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%2 == 0 {
					tab.SetClass("C", remote)
				} else {
					tab.SetClass("C", LocalPlacement)
				}
				tab.For("C")
				tab.Version()
			}
		}(g)
	}
	wg.Wait()
}

func TestSetClassIfVersionGate(t *testing.T) {
	tab := NewTable()
	remote, _ := RemoteAt("rrp://h:1")
	v := tab.Version()
	if !tab.SetClassIf("C", remote, v) {
		t.Fatal("matching version rejected")
	}
	if pl, _ := tab.For("C"); pl.Kind != Remote {
		t.Fatal("gated set not applied")
	}
	// Stale version: the table moved on (the gated set itself bumped it).
	if tab.SetClassIf("C", LocalPlacement, v) {
		t.Fatal("stale version accepted")
	}
	if pl, _ := tab.For("C"); pl.Kind != Remote {
		t.Fatal("stale set mutated the table")
	}
	if tab.Version() != v+1 {
		t.Fatalf("version = %d, want %d (failed set must not bump)", tab.Version(), v+1)
	}
}

// TestSetReturnsAuthoritativeVersion pins the contract the node relies
// on for re-policy atomicity: every successful mutation returns the
// version that uniquely identifies the new configuration, and a reader's
// (placement, version) pair is always consistent — a creation that reads
// at version v sees exactly the placement written by the mutation that
// produced v, never a half-applied mix.
func TestSetReturnsAuthoritativeVersion(t *testing.T) {
	tab := NewTable()
	remote, _ := RemoteAt("rrp://h:1")

	// Record the placement each version corresponds to, from the
	// writers' side.
	var mu sync.Mutex
	wrote := map[uint64]Kind{0: Local}
	flip := func(i int) {
		var v uint64
		var k Kind
		if i%2 == 0 {
			v, k = tab.SetClass("C", remote), Remote
		} else {
			v, k = tab.SetClass("C", LocalPlacement), Local
		}
		mu.Lock()
		if prev, dup := wrote[v]; dup && prev != k {
			mu.Unlock()
			t.Errorf("version %d issued twice with different placements", v)
			return
		}
		wrote[v] = k
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				flip(g*200 + i)
			}
		}(g)
	}
	// Readers: every (placement, version) pair observed must match what
	// the writer of that version wrote — whole old or whole new, never
	// torn.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				pl, v := tab.For("C")
				mu.Lock()
				want, ok := wrote[v]
				mu.Unlock()
				if ok && pl.Kind != want {
					t.Errorf("read version %d with placement %v, writer wrote %v", v, pl.Kind, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestKindString(t *testing.T) {
	if Local.String() != "local" || Remote.String() != "remote" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

// TestSnapshotUnderRace: writers place a class with SetClass, and with
// SetClassIf at a version they read, while readers call For and Version.
// Each write publishes one version, so a version is claimed by one
// writer only: a SetClassIf that read a stale version never wins.  Every
// (placement, version) pair a reader sees is the one the writer of that
// version wrote.  Run it under -race.
func TestSnapshotUnderRace(t *testing.T) {
	tab := NewTable()
	var (
		mu    sync.Mutex
		wrote = map[uint64]string{0: ""} // version -> endpoint placed by its writer
		seen  = map[uint64]string{}
	)
	claim := func(v uint64, endpoint string) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := wrote[v]; dup {
			t.Errorf("version %d published twice: %q and %q", v, prev, endpoint)
		}
		wrote[v] = endpoint
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				pl, _ := RemoteAt(fmt.Sprintf("rrp://w%d:%d", w, i))
				if w%2 == 0 {
					claim(tab.SetClass("C", pl), pl.Endpoint)
				} else if v := tab.Version(); tab.SetClassIf("C", pl, v) {
					claim(v+1, pl.Endpoint)
				}
			}
		}()
	}
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				pl, v := tab.For("C")
				if tab.Version() < v {
					t.Error("version went backwards")
				}
				mu.Lock()
				seen[v] = pl.Endpoint
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for v, endpoint := range seen {
		if want, ok := wrote[v]; !ok || want != endpoint {
			t.Errorf("read %q at version %d, whose writer placed %q", endpoint, v, want)
		}
	}
	if last := tab.Version(); uint64(len(wrote)) != last+1 {
		t.Errorf("%d versions claimed up to version %d", len(wrote)-1, last)
	}
}
