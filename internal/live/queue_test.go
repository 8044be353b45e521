package live

import (
	"context"
	"testing"
	"time"

	"satwatch/internal/obs"
)

func testQueueMetrics(t *testing.T) QueueMetrics {
	t.Helper()
	reg := obs.NewRegistry()
	return QueueMetrics{
		Depth:     reg.Gauge("test_depth", "", ""),
		HighWater: reg.Gauge("test_highwater", "", ""),
		Shed:      reg.Counter("test_shed_total", "", ""),
		Pushed:    reg.Counter("test_pushed_total", "", ""),
	}
}

func TestQueueBlockAppliesBackpressure(t *testing.T) {
	m := testQueueMetrics(t)
	q := NewQueue[int](2, Block, m, nil)
	ctx := context.Background()

	if !q.Push(ctx, 1, nil) || !q.Push(ctx, 2, nil) {
		t.Fatal("pushes within capacity must succeed")
	}

	// A third push must block until a pop frees space — and must park
	// its stage while waiting, because backpressure is not a stall.
	st := &stage{name: "producer"}
	pushed := make(chan bool, 1)
	go func() {
		pushed <- q.Push(ctx, 3, st)
	}()
	select {
	case <-pushed:
		t.Fatal("push on a full Block queue returned without a pop")
	case <-time.After(250 * time.Millisecond):
	}
	if !st.parked.Load() {
		t.Error("blocked push did not park its stage")
	}
	if v, ok := q.Pop(ctx, nil); !ok || v != 1 {
		t.Fatalf("Pop = %d, %v", v, ok)
	}
	select {
	case ok := <-pushed:
		if !ok {
			t.Fatal("unblocked push reported failure")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push still blocked after pop freed space")
	}
	if st.parked.Load() {
		t.Error("stage still parked after its push went through")
	}
	if m.Shed.Value() != 0 {
		t.Errorf("Block queue shed %d items", m.Shed.Value())
	}
	if m.Pushed.Value() != 3 {
		t.Errorf("pushed counter = %d, want 3", m.Pushed.Value())
	}
}

func TestQueueBlockPushAbortsOnCancel(t *testing.T) {
	q := NewQueue[int](1, Block, testQueueMetrics(t), nil)
	q.Push(context.Background(), 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- q.Push(ctx, 2, nil) }()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled push reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled push did not return")
	}
}

// TestQueueIdleWaitAllocatesNothing: a wait parks the stage and blocks
// on the queue's channel and ctx, with no ticker or timer behind it.
func TestQueueIdleWaitAllocatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := &stage{name: "idle"}
	empty := NewQueue[int](1, Block, testQueueMetrics(t), nil)
	if n := testing.AllocsPerRun(100, func() { empty.Pop(ctx, st) }); n != 0 {
		t.Errorf("Pop on an empty queue allocates %v objects, want 0", n)
	}
	full := NewQueue[int](1, Block, testQueueMetrics(t), nil)
	full.Push(ctx, 1, nil)
	if n := testing.AllocsPerRun(100, func() { full.Push(ctx, 2, st) }); n != 0 {
		t.Errorf("Block Push to a full queue allocates %v objects, want 0", n)
	}
	if st.parked.Load() {
		t.Error("stage left parked after its waits were cancelled")
	}
}

func TestQueueShedDropsAndCounts(t *testing.T) {
	m := testQueueMetrics(t)
	q := NewQueue[int](2, Shed, m, nil)
	ctx := context.Background()

	if !q.Push(ctx, 1, nil) || !q.Push(ctx, 2, nil) {
		t.Fatal("pushes within capacity must succeed")
	}
	start := time.Now()
	if q.Push(ctx, 3, nil) {
		t.Fatal("push on a full Shed queue must drop")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("Shed push waited instead of dropping immediately")
	}
	if m.Shed.Value() != 1 {
		t.Errorf("shed counter = %d, want 1", m.Shed.Value())
	}
	if m.Pushed.Value() != 2 {
		t.Errorf("pushed counter = %d, want 2", m.Pushed.Value())
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[int](4, Block, testQueueMetrics(t), nil)
	ctx := context.Background()
	q.Push(ctx, 1, nil)
	q.Push(ctx, 2, nil)
	q.Close()
	q.Close() // idempotent

	if v, ok := q.Pop(ctx, nil); !ok || v != 1 {
		t.Fatalf("Pop after close = %d, %v; want 1, true", v, ok)
	}
	if v, ok := q.Pop(ctx, nil); !ok || v != 2 {
		t.Fatalf("Pop after close = %d, %v; want 2, true", v, ok)
	}
	if _, ok := q.Pop(ctx, nil); ok {
		t.Fatal("Pop on a drained closed queue reported ok")
	}
}

func TestClockSpeedup(t *testing.T) {
	c := NewClock(1000, 0)
	time.Sleep(50 * time.Millisecond)
	got := c.Now()
	// 50 ms wall at 1000x ≈ 50 s sim; CI schedulers stretch the sleep,
	// never shrink it.
	if got < 45*time.Second || got > 10*time.Minute {
		t.Fatalf("Now() = %s after 50ms wall at 1000x", got)
	}
	if w := c.WallUntil(got + 1000*time.Second); w < 500*time.Millisecond || w > 1100*time.Millisecond {
		t.Fatalf("WallUntil(+1000s sim) = %s, want ~1s wall", w)
	}
	if c.WallUntil(0) > 0 {
		t.Fatal("WallUntil(past) must be <= 0")
	}
}
