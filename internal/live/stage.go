package live

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// stageFn is one stage's body. It must heartbeat via st.beat at every
// loop iteration, and park st for every wait on input, space or time: it
// hands st to Queue.Push/Pop, which park it, and brackets its own timer
// waits with st.park/unpark, so an idle stage sleeps instead of waking to
// beat. Returning nil means clean exit (input drained). Returning an
// error, or panicking, fails the pipeline.
type stageFn func(ctx context.Context, st *stage) error

// stage is the supervised unit: a named goroutine with a heartbeat the
// watchdog inspects. At any moment a running stage is working (beating
// per item), parked (blocked on a channel and its context, waiting for
// input, space or time) or wedged (working, but its last beat is older
// than the stall timeout).
type stage struct {
	name string
	fn   stageFn

	hb     atomic.Int64 // wall nanos of the last heartbeat
	parked atomic.Bool  // waiting on a channel and ctx; watchdog ignores
	done   atomic.Bool  // exited; watchdog ignores

	// onExit runs once, after the stage's clean exit (used to close
	// downstream queues when a stage group finishes).
	onExit func()
}

func (st *stage) beat() { st.hb.Store(time.Now().UnixNano()) }

// park marks the stage as waiting: until unpark, the watchdog does not
// count the silence against it. A parked stage must block only on
// channels and its context, so a hard abort still unwinds it. Nil-safe,
// so a queue used outside a supervisor takes a nil stage.
func (st *stage) park() {
	if st != nil {
		st.parked.Store(true)
	}
}

// unpark ends a wait: the stage is working again, as of now. The beat
// lands before the flag clears, so the watchdog never sees an unparked
// stage with the heartbeat from before its wait.
func (st *stage) unpark() {
	if st != nil {
		st.beat()
		st.parked.Store(false)
	}
}

// stale reports whether a working stage's heartbeat is older than
// timeout: it is wedged mid-item.
func (st *stage) stale(timeout time.Duration) bool {
	if st.done.Load() || st.parked.Load() {
		return false
	}
	return time.Since(time.Unix(0, st.hb.Load())) > timeout
}

// supervisor runs stages and watches their heartbeats. It is crash-only:
// a stage that panics, returns an error or stalls past the timeout fails
// the whole pipeline, and nothing is relaunched. The first failure wins;
// failed closes when it lands, and the owner then hard-aborts the rest.
type supervisor struct {
	stages  []*stage
	timeout time.Duration
	wg      sync.WaitGroup // stage goroutines only
	wdDone  chan struct{}  // watchdog exit (it outlives the stages)

	failOnce sync.Once
	failed   chan struct{}
	err      error // written once, before failed closes
}

// newSupervisor returns a supervisor whose watchdog finds a working
// stage wedged after timeout without a beat.
func newSupervisor(timeout time.Duration) *supervisor {
	return &supervisor{timeout: timeout, failed: make(chan struct{})}
}

// add registers a stage; onExit, when non-nil, runs after its clean exit.
func (sup *supervisor) add(name string, fn stageFn, onExit func()) {
	sup.stages = append(sup.stages, &stage{name: name, fn: fn, onExit: onExit})
}

// start launches every stage under ctx plus the watchdog. The watchdog
// exits when ctx is cancelled or after the first stall — it must outlive
// a graceful drain, so wait does not cover it; cancel ctx and receive on
// wdDone to reap it.
func (sup *supervisor) start(ctx context.Context) {
	for _, st := range sup.stages {
		st.beat() // arm before launch so a pre-first-iteration probe isn't "stalled"
		sup.wg.Add(1)
		go sup.run(ctx, st)
	}
	sup.wdDone = make(chan struct{})
	go sup.watchdog(ctx)
}

// wait blocks until every stage has exited (the watchdog is reaped
// separately via wdDone).
func (sup *supervisor) wait() { sup.wg.Wait() }

// fail records the pipeline's failure; the first one wins.
func (sup *supervisor) fail(err error) {
	sup.failOnce.Do(func() {
		sup.err = err
		close(sup.failed)
	})
}

// failure returns the failure that stopped the pipeline, or nil.
func (sup *supervisor) failure() error {
	select {
	case <-sup.failed:
		return sup.err
	default:
		return nil
	}
}

// run runs one stage once. A clean exit runs onExit; an exit under a
// cancelled ctx is the hard abort and skips it (the exit was not a
// drain); a panic or error fails the pipeline.
func (sup *supervisor) run(ctx context.Context, st *stage) {
	defer sup.wg.Done()
	err := sup.invoke(ctx, st)
	st.done.Store(true)
	switch {
	case err != nil:
		sup.fail(fmt.Errorf("live: stage %s failed: %w", st.name, err))
	case ctx.Err() == nil && st.onExit != nil:
		st.onExit()
	}
}

// invoke runs the stage with a panic fence.
func (sup *supervisor) invoke(ctx context.Context, st *stage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return st.fn(ctx, st)
}

// watchdog scans heartbeats. Every blocking point in a stage is
// context-aware and parks the stage while it waits, so a stale heartbeat
// on an unparked stage means it is wedged mid-item. Go cannot stop that
// goroutine, so the stall fails the pipeline with every goroutine's
// stack, and the watchdog's work is done.
func (sup *supervisor) watchdog(ctx context.Context) {
	defer close(sup.wdDone)
	interval := sup.timeout / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if stalled := sup.stalled(); len(stalled) > 0 {
			mWatchdogStalls.Inc()
			stacks := make([]byte, 64<<10)
			stacks = stacks[:runtime.Stack(stacks, true)]
			sup.fail(fmt.Errorf("live: stage %s stalled > %s\n%s", stalled[0], sup.timeout, stacks))
			return
		}
	}
}

// stalled reports the names of currently stale stages (for /healthz).
func (sup *supervisor) stalled() []string {
	var out []string
	for _, st := range sup.stages {
		if st.stale(sup.timeout) {
			out = append(out, st.name)
		}
	}
	return out
}
