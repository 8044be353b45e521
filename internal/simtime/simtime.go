// Package simtime provides a deterministic discrete-event scheduler used by
// the satellite MAC and PEP micro-simulators.
//
// Simulated time is a time.Duration measured from the start of the run
// (the "epoch"). Events scheduled for the same instant fire in the order
// they were scheduled, which keeps runs reproducible.
package simtime

import (
	"fmt"
	"time"
)

// Stamp is a point in simulated time, expressed as the offset from the
// simulation epoch.
type Stamp = time.Duration

// Event is a callback scheduled to run at a given simulated instant.
type Event func(now Stamp)

type item struct {
	at  Stamp
	seq uint64
	fn  Event
}

// before orders events by time, then by scheduling order.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler is a discrete-event simulator clock plus pending-event queue.
// The zero value is ready to use. The queue is a binary min-heap of items
// held by value, so scheduling and stepping allocate nothing once the
// backing array has grown to the run's peak of pending events.
type Scheduler struct {
	now   Stamp
	seq   uint64
	queue []item
}

// At schedules fn to run at the absolute simulated time at. Scheduling in
// the past panics: it would silently reorder causality.
func (s *Scheduler) At(at Stamp, fn Event) {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", at, s.now))
	}
	s.seq++
	s.queue = append(s.queue, item{at: at, seq: s.seq, fn: fn})
	// Sift the new item up to its place.
	q := s.queue
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// After schedules fn to run d after the current simulated time.
func (s *Scheduler) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports false when no events are pending.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	q := s.queue
	it := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = item{} // release the closure
	s.queue = q[:n]
	// Sift the moved item down to its place.
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	s.now = it.at
	it.fn(s.now)
	return true
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Stamp) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
