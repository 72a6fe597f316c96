// Package par fans independent per-index work out across cores.  The
// deploy-time pipeline (verifier.Verify, transform.Transform) uses it to
// run its per-class work in parallel while producing exactly the serial
// output: each call owns one index and writes only that index's result
// slot, and the caller merges the slots in index order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunk is how many consecutive indices one worker takes at a time.  It
// amortises the shared counter over enough classes that handing out work
// costs nothing next to doing it, while leaving a corpus-sized range
// enough chunks to balance across cores.
const chunk = 64

// For calls fn(i) once for every i in [0, n) and returns after every call
// has returned.  Indices are handed out 64 (chunk) at a time to at most
// runtime.GOMAXPROCS(0) workers, the caller's goroutine being one of
// them; a range of one chunk, or a GOMAXPROCS of 1, runs inline with no
// goroutine.  fn must write only state owned by its index.  A panic in fn
// stops further chunks being handed out and is re-raised on the caller's
// goroutine once the other workers have finished.
func For(n int, fn func(i int)) {
	ForWith(n, func(_ *struct{}, i int) { fn(i) })
}

// ForWith is For with scratch state: each worker owns one S, zero at its
// start, and passes it to every call of fn it makes, so fn can keep
// working memory from one index to the next.  What fn leaves in the
// scratch must not change any index's result.
func ForWith[S any](n int, fn func(scratch *S, i int)) {
	chunks := (n + chunk - 1) / chunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		var scratch S
		for i := range n {
			fn(&scratch, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(chunks))
				once.Do(func() { panicked = r })
			}
		}()
		var scratch S
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			for i := c * chunk; i < min((c+1)*chunk, n); i++ {
				fn(&scratch, i)
			}
		}
	}
	wg.Add(workers)
	for range workers - 1 {
		go work()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
