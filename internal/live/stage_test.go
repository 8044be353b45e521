package live

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestWatchdogCancelsStalledStage pins the stall contract: a stage that
// stops heartbeating mid-item fails the pipeline with a failure naming
// it and carrying the goroutine stacks, and counts one stall; the hard
// abort that follows unwinds it without its onExit.
func TestWatchdogCancelsStalledStage(t *testing.T) {
	sup := newSupervisor(200 * time.Millisecond)
	stallsBefore := mWatchdogStalls.Value()

	sup.add("wedged", func(ctx context.Context, st *stage) error {
		st.beat()
		<-ctx.Done() // wedged: blocks without beating or parking
		return nil
	}, func() { t.Error("onExit ran after a hard abort") })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.start(ctx)
	select {
	case <-sup.failed:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never failed the pipeline on the wedged stage")
	}
	cancel()
	sup.wait()
	<-sup.wdDone

	err := sup.failure()
	if err == nil || !strings.Contains(err.Error(), "stage wedged stalled") || !strings.Contains(err.Error(), "goroutine ") {
		t.Errorf("failure = %v, want the stalled stage named, with stacks", err)
	}
	if d := mWatchdogStalls.Value() - stallsBefore; d != 1 {
		t.Errorf("live_watchdog_stalls_total moved by %d, want 1", d)
	}
}

// TestParkedStageIsNotStalled: a stage starved of input parks in Pop and
// stays parked past several stall timeouts without a single wake-up; the
// watchdog must neither report it stalled nor cancel it.
func TestParkedStageIsNotStalled(t *testing.T) {
	const timeout = 100 * time.Millisecond
	sup := newSupervisor(timeout)
	q := NewQueue[int](1, Block, testQueueMetrics(t), nil)
	sup.add("starved", func(ctx context.Context, st *stage) error {
		st.beat()
		if _, ok := q.Pop(ctx, st); ok {
			return errors.New("popped an item nobody pushed")
		}
		return nil
	}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.start(ctx)
	for end := time.Now().Add(4 * timeout); time.Now().Before(end); {
		if s := sup.stalled(); len(s) > 0 {
			t.Fatalf("parked stage reported stalled: %v", s)
		}
		time.Sleep(timeout / 5)
	}
	q.Close()
	sup.wait()
	cancel()
	<-sup.wdDone

	if err := sup.failure(); err != nil {
		t.Errorf("parked stage failed the pipeline: %v", err)
	}
}
