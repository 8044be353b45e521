package live

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func testSupervisor(timeout time.Duration) (*supervisor, *atomic.Int64) {
	var degradations atomic.Int64
	sup := &supervisor{
		timeout: timeout,
		degrade: func(string) { degradations.Add(1) },
		logf:    func(string, ...any) {},
	}
	return sup, &degradations
}

func TestSupervisorRestartsPanickedStage(t *testing.T) {
	sup, degradations := testSupervisor(time.Minute)
	restartsBefore := mStageRestarts.Value()

	var runs atomic.Int64
	sup.add("boom", func(ctx context.Context, st *stage) error {
		st.beat()
		if runs.Add(1) == 1 {
			panic("injected")
		}
		return nil // second incarnation exits cleanly
	}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.start(ctx)
	sup.wait()
	cancel()
	<-sup.wdDone

	if got := runs.Load(); got != 2 {
		t.Fatalf("stage ran %d times, want 2 (original + restart)", got)
	}
	if d := mStageRestarts.Value() - restartsBefore; d != 1 {
		t.Errorf("live_stage_restarts_total moved by %d, want 1", d)
	}
	if degradations.Load() == 0 {
		t.Error("panicked stage did not degrade the pipeline")
	}
}

func TestSupervisorErrorReturnRestarts(t *testing.T) {
	sup, _ := testSupervisor(time.Minute)
	var runs atomic.Int64
	sup.add("flaky", func(ctx context.Context, st *stage) error {
		st.beat()
		if runs.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.start(ctx)
	sup.wait()
	cancel()
	<-sup.wdDone
	if got := runs.Load(); got != 3 {
		t.Fatalf("stage ran %d times, want 3", got)
	}
}

// TestWatchdogCancelsStalledStage pins the stall contract: a stage that
// stops heartbeating mid-item gets its incarnation cancelled and is
// relaunched; the relaunched incarnation (which behaves) then exits
// cleanly on drain.
func TestWatchdogCancelsStalledStage(t *testing.T) {
	sup, degradations := testSupervisor(200 * time.Millisecond)
	stallsBefore := mWatchdogStalls.Value()

	var runs atomic.Int64
	drain := make(chan struct{})
	sup.add("wedged", func(ctx context.Context, st *stage) error {
		st.beat()
		if runs.Add(1) == 1 {
			// Wedge: block on the stage context without beating — the
			// watchdog must cancel us.
			<-ctx.Done()
			return nil // a clean return under a cancelled ctx still restarts
		}
		// Healthy incarnation: beat until drained.
		for {
			select {
			case <-drain:
				return nil
			case <-time.After(20 * time.Millisecond):
				st.beat()
			}
		}
	}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup.start(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if runs.Load() < 2 {
		t.Fatal("watchdog never relaunched the wedged stage")
	}
	close(drain)
	sup.wait()
	cancel()
	<-sup.wdDone

	if mWatchdogStalls.Value() == stallsBefore {
		t.Error("live_watchdog_stalls_total did not move")
	}
	if degradations.Load() == 0 {
		t.Error("stall did not degrade the pipeline")
	}
}

func TestSupervisorHardAbortStopsRestarting(t *testing.T) {
	sup, _ := testSupervisor(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan struct{}, 16)
	sup.add("loop", func(sctx context.Context, st *stage) error {
		started <- struct{}{}
		st.beat()
		<-sctx.Done()
		return sctx.Err()
	}, nil)
	sup.start(ctx)
	<-started
	cancel() // hard abort: the error return must not trigger a restart
	waited := make(chan struct{})
	go func() { sup.wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("stage kept restarting after hard abort")
	}
	<-sup.wdDone
}

// TestParkedStageIsNotStalled: a stage starved of input parks in Pop and
// stays parked past several stall timeouts without a single wake-up; the
// watchdog must neither report it stalled nor cancel it.
func TestParkedStageIsNotStalled(t *testing.T) {
	const timeout = 100 * time.Millisecond
	sup, degradations := testSupervisor(timeout)
	q := NewQueue[int](1, Block, testQueueMetrics(t), nil)
	var runs atomic.Int64
	sup.add("starved", func(ctx context.Context, st *stage) error {
		runs.Add(1)
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

	if got := runs.Load(); got != 1 {
		t.Errorf("parked stage ran %d times, want 1 (never restarted)", got)
	}
	if degradations.Load() != 0 {
		t.Error("parked stage degraded the pipeline")
	}
}
