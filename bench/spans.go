package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call made from the benchmark into a layer.  Spans
// are recorded here, around the calls, not inside the program; a span's
// self time is its duration minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the causing span, -1 for a root
	Name   string `json:"name"`
	Op     uint64 `json:"op"`       // the operation the span belongs to
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	N      int    `json:"n"` // calls covered (batch spans of sub-microsecond calls)
}

// spans keeps at most maxSpans spans in memory until write.  Past the
// cap begin still reads the clock, so the cost of tracing is paid and
// measured either way, but the span is dropped and counted.
type spans struct {
	mu      sync.Mutex
	t0      time.Time
	buf     []span
	dropped int
}

const maxSpans = 1 << 17

func newSpans() *spans {
	return &spans{t0: time.Now(), buf: make([]span, 0, maxSpans)}
}

func (s *spans) begin(name string, parent int, op uint64) int {
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == maxSpans {
		s.dropped++
		return -1
	}
	s.buf = append(s.buf, span{ID: len(s.buf), Parent: parent, Name: name, Op: op, Start: now, N: 1})
	return len(s.buf) - 1
}

func (s *spans) end(i int) { s.endN(i, 1) }

func (s *spans) endN(i, n int) {
	now := int64(time.Since(s.t0))
	if i < 0 {
		return
	}
	s.mu.Lock()
	s.buf[i].End, s.buf[i].N = now, n
	s.mu.Unlock()
}

// write stores the spans as JSON lines, one span each.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range s.buf {
		if err := enc.Encode(&s.buf[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
