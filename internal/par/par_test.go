package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversEachIndexOnce runs every index exactly once for ranges
// below, at and past a chunk boundary, at one and at four workers.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 5*chunk + 3} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				counts := make([]int32, n)
				For(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
			})
		}
	}
}

// TestForOneChunkRunsInline keeps a range of one chunk on the caller's
// goroutine, so small programs pay no fan-out.
func TestForOneChunkRunsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	For(chunk, func(int) {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("goroutines = %d inside a one-chunk range, want %d", n, before)
		}
	})
}

// TestForPanicReachesCaller re-raises a worker's panic on the caller's
// goroutine, where the caller can recover it.
func TestForPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	For(8*chunk, func(i int) {
		if i == 7*chunk {
			panic("boom")
		}
	})
	t.Error("For returned normally")
}

// TestForWithScratchPerWorker gives each worker its own scratch: the
// indices one scratch sees ascend (a worker takes chunks in order), and
// together the scratches see every index once.  Under -race a scratch
// shared between workers is a data race.
func TestForWithScratchPerWorker(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			n := 5*chunk + 3
			counts := make([]int32, n)
			var disorder atomic.Int32
			ForWith(n, func(seen *[]int, i int) {
				if k := len(*seen); k > 0 && (*seen)[k-1] >= i {
					disorder.Add(1)
				}
				*seen = append(*seen, i)
				atomic.AddInt32(&counts[i], 1)
			})
			if disorder.Load() != 0 {
				t.Fatalf("%d indices reached a scratch out of order", disorder.Load())
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
		})
	}
}
