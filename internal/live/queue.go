package live

import (
	"context"
	"sync/atomic"

	"satwatch/internal/obs"
)

// Policy declares what a full queue does to a producer: Block applies
// backpressure upstream (the producer waits), Shed drops the item and
// counts it. Every pipeline edge declares its policy explicitly — see
// DESIGN.md §11 for the per-edge table and the reasoning.
type Policy int

const (
	// Block makes Push wait for space (or context cancellation). Used
	// where losing an item would desynchronize the pipeline.
	Block Policy = iota
	// Shed makes Push drop the item immediately when the queue is full,
	// incrementing the shed counter. Used where the system must keep up
	// with real time and items are individually expendable.
	Shed
)

func (p Policy) String() string {
	if p == Shed {
		return "shed"
	}
	return "block"
}

// QueueMetrics is the flat metric family of one pipeline edge. Depth is
// updated with deltas so several queues (worker shards) can share one
// family and aggregate correctly.
type QueueMetrics struct {
	Depth     *obs.Gauge
	HighWater *obs.Gauge
	Shed      *obs.Counter
	Pushed    *obs.Counter
}

// Queue is a bounded, metric-instrumented channel with a declared
// overflow policy.
type Queue[T any] struct {
	ch     chan T
	policy Policy
	m      QueueMetrics
	closed atomic.Bool
}

// NewQueue builds a queue with the given capacity and policy. The last
// parameter is unused: benchmark/ passes nil to it and is not changed
// outside a yardstick change (ROADMAP item 4(c)).
func NewQueue[T any](capacity int, policy Policy, m QueueMetrics, _ *atomic.Bool) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{ch: make(chan T, capacity), policy: policy, m: m}
}

// Len returns the buffered item count.
func (q *Queue[T]) Len() int { return len(q.ch) }

func (q *Queue[T]) accepted() {
	q.m.Pushed.Inc()
	depth := float64(len(q.ch))
	q.m.Depth.Add(1)
	q.m.HighWater.SetMax(depth)
}

// Push offers v to the queue. Block policy waits for space or for ctx;
// st (when non-nil) is parked for the wait, because backpressure is not
// a stall. Shed policy never waits. Returns false when the item was shed
// or ctx was cancelled. Push on a closed queue panics (the pipeline
// closes an edge only after every producer has exited).
func (q *Queue[T]) Push(ctx context.Context, v T, st *stage) bool {
	if q.policy == Shed {
		select {
		case q.ch <- v:
			q.accepted()
			return true
		default:
			q.m.Shed.Inc()
			return false
		}
	}
	// Block: try fast, then park until there is space.
	select {
	case q.ch <- v:
		q.accepted()
		return true
	default:
	}
	st.park()
	defer st.unpark()
	select {
	case q.ch <- v:
		q.accepted()
		return true
	case <-ctx.Done():
		return false
	}
}

// Pop takes the next item, waiting for one; st (when non-nil) is parked
// while the queue is empty, so a starved consumer is not a stall. ok is
// false when the queue is closed and drained, or ctx is cancelled.
func (q *Queue[T]) Pop(ctx context.Context, st *stage) (v T, ok bool) {
	select {
	case v, ok = <-q.ch:
	default:
		st.park()
		select {
		case v, ok = <-q.ch:
		case <-ctx.Done():
		}
		st.unpark()
	}
	if ok {
		q.m.Depth.Add(-1)
	}
	return v, ok
}

// Close marks the producer side finished; Pop drains the remaining items
// and then reports ok=false. Idempotent.
func (q *Queue[T]) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.ch)
	}
}
