package trace

// Live-path collection: where the batch Tracer buffers every sampled
// flow and sorts at Close, the streaming daemon needs two different
// destinations for a finished span tree — a bounded in-memory ring the
// control plane can serve (`GET /trace/recent`) and a size-capped
// rotating JSONL log on disk (`satlive -trace DIR`). Both are written
// by synthesis workers and read concurrently, so unlike the Tracer they
// are safe for reads while flows keep finishing.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"satwatch/internal/obs"
)

// Ring is a bounded, concurrency-safe buffer of the most recently
// finished flows. Old entries are evicted in FIFO order once the
// capacity is reached. Flows must not be mutated after insertion.
type Ring struct {
	mu    sync.Mutex
	buf   []*Flow
	next  int
	full  bool
	total uint64
}

// NewRing builds a ring keeping the last n flows (n < 1 keeps 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]*Flow, n)}
}

// Add inserts a finished flow, evicting the oldest when full.
func (r *Ring) Add(f *Flow) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = f
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.total++
	r.mu.Unlock()
}

// Total reports how many flows have ever been added.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Recent returns up to limit flows, newest first (limit <= 0 returns
// everything retained). The returned slice is a copy; the flows are
// shared and must be treated as immutable.
func (r *Ring) Recent(limit int) []*Flow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]*Flow, 0, limit)
	for i := 0; i < limit; i++ {
		// Walk backwards from the most recent insertion point.
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// RotatingWriter appends flows as JSONL to <dir>/trace.jsonl, rotating
// to trace.1.jsonl, trace.2.jsonl, ... when the current file exceeds
// maxBytes, and pruning rotations beyond keep. Each flow is written as
// one line in a single Write call, so a crash can corrupt at most the
// final line — which the tolerant reader skips. Safe for concurrent use.
type RotatingWriter struct {
	dir      string
	maxBytes int64
	keep     int

	mu   sync.Mutex
	f    *os.File
	size int64
}

// DefaultTraceMaxBytes caps one live trace file before rotation.
const DefaultTraceMaxBytes = 8 << 20

// DefaultTraceKeep is how many rotated trace files survive pruning.
const DefaultTraceKeep = 4

// NewRotatingWriter opens (creating dir if needed) the live trace log,
// capped at DefaultTraceMaxBytes a file and DefaultTraceKeep rotations.
func NewRotatingWriter(dir string) (*RotatingWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create dir: %w", err)
	}
	w := &RotatingWriter{dir: dir, maxBytes: DefaultTraceMaxBytes, keep: DefaultTraceKeep}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

// Current returns the path of the active trace file.
func (w *RotatingWriter) Current() string { return filepath.Join(w.dir, "trace.jsonl") }

func (w *RotatingWriter) open() (err error) {
	if w.f, w.size, err = obs.OpenAppend(w.Current()); err != nil {
		return fmt.Errorf("trace: open log: %w", err)
	}
	return nil
}

// Write appends one flow as a JSONL line, rotating first when the line
// would push the current file past the size cap. It reports whether a
// rotation happened.
func (w *RotatingWriter) Write(f *Flow) (rotated bool, err error) {
	if w == nil || f == nil {
		return false, nil
	}
	b, err := json.Marshal(f)
	if err != nil {
		return false, fmt.Errorf("trace: encode %s: %w", f.ID(), err)
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.size > 0 && w.size+int64(len(b)) > w.maxBytes {
		if err := w.rotateLocked(); err != nil {
			return false, err
		}
		rotated = true
	}
	n, err := w.f.Write(b)
	w.size += int64(n)
	if err != nil {
		return rotated, fmt.Errorf("trace: write: %w", err)
	}
	return rotated, nil
}

// rotateLocked shifts trace.jsonl → trace.1.jsonl → ... → trace.<keep>
// (the oldest falls off) and opens a fresh current file.
func (w *RotatingWriter) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("trace: close for rotate: %w", err)
	}
	numbered := func(i int) string { return filepath.Join(w.dir, fmt.Sprintf("trace.%d.jsonl", i)) }
	os.Remove(numbered(w.keep))
	for i := w.keep - 1; i >= 1; i-- {
		if _, err := os.Stat(numbered(i)); err == nil {
			if err := os.Rename(numbered(i), numbered(i+1)); err != nil {
				return fmt.Errorf("trace: rotate: %w", err)
			}
		}
	}
	if err := os.Rename(w.Current(), numbered(1)); err != nil {
		return fmt.Errorf("trace: rotate current: %w", err)
	}
	return w.open()
}

// Close flushes and closes the current file.
func (w *RotatingWriter) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// SortByStart orders flows by start time, breaking ties by identity —
// the merge order sattrace uses when reading rotated live logs.
func SortByStart(flows []*Flow) {
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.StartMS != b.StartMS {
			return a.StartMS < b.StartMS
		}
		if a.Customer != b.Customer {
			return a.Customer < b.Customer
		}
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		return a.Index < b.Index
	})
}
