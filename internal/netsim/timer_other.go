//go:build !linux

package netsim

import "time"

// timer is a delivery goroutine's wait.  Off Linux it is a Go timer, so
// short delays round up to the runtime's timer granularity when the
// process is idle.
type timer struct{}

func newTimer() (*timer, error) { return &timer{}, nil }

// sleep returns once d has passed.
func (*timer) sleep(d time.Duration) { time.Sleep(d) }

func (*timer) close() {}
