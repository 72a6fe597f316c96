package netsim

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer is a delivery goroutine's wait: a timerfd the runtime's netpoller
// watches.  The kernel fires it at hrtimer precision and the poller wakes
// for it even when every P is idle, where a Go timer would wait for the
// idle poller's next millisecond.
type timer struct {
	fd  int
	f   *os.File
	buf [8]byte // expiration count, read and discarded
}

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor joins the netpoller, so a read parks the
	// goroutine, not a thread.  Never call f.Fd(): it would make the
	// descriptor blocking again.
	return &timer{fd: int(fd), f: os.NewFile(fd, "netsim-timer")}, nil
}

// sleep returns once d has passed.
func (t *timer) sleep(d time.Duration) {
	its := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	if errno == 0 {
		if _, err := t.f.Read(t.buf[:]); err == nil {
			return
		}
	}
	time.Sleep(d) // the timer failed: wait coarsely rather than spin
}

func (t *timer) close() { _ = t.f.Close() }
