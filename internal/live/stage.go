package live

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// stageFn is one stage's body. It must heartbeat via st.beat at every
// loop iteration, and park st for every wait on input, space or time: it
// hands st to Queue.Push/Pop, which park it, and brackets its own timer
// waits with st.park/unpark, so an idle stage sleeps instead of waking to
// beat. Returning nil means clean exit (input drained) — the supervisor
// lets the stage go. Returning an error (or panicking) gets the stage
// relaunched.
type stageFn func(ctx context.Context, st *stage) error

// stage is the supervised unit: a named goroutine with a heartbeat the
// watchdog inspects, restarted on panic or watchdog cancel. At any moment
// a running stage is working (beating per item), parked (blocked on a
// channel and its context, waiting for input, space or time) or wedged
// (working, but its last beat is older than the stall timeout).
type stage struct {
	name string
	fn   stageFn

	hb       atomic.Int64 // wall nanos of the last heartbeat
	parked   atomic.Bool  // waiting on a channel and ctx; watchdog ignores
	restarts atomic.Int64
	done     atomic.Bool // clean exit; no restart, watchdog ignores

	cancelMu sync.Mutex
	cancel   context.CancelFunc // cancels the current incarnation

	// onExit runs once, after the stage's final clean exit (used to
	// close downstream queues when a stage group finishes).
	onExit func()
}

func (st *stage) beat() { st.hb.Store(time.Now().UnixNano()) }

// park marks the stage as waiting: until unpark, the watchdog does not
// count the silence against it. A parked stage must block only on
// channels and its context, so a cancel still unwinds it. Nil-safe, so a
// queue used outside a supervisor takes a nil stage.
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

// supervisor runs stages, watches their heartbeats, and restarts the
// ones that panic or stall. A stall or restart flips the pipeline into
// degraded mode — the daemon keeps running, sheds earlier, and reports
// the state via /healthz and live_degraded.
type supervisor struct {
	stages  []*stage
	timeout time.Duration
	degrade func(reason string)
	logf    func(format string, args ...any)
	wg      sync.WaitGroup // stage goroutines only
	wdDone  chan struct{}  // watchdog exit (it outlives the stages)
}

// add registers a stage; onExit, when non-nil, runs after its final
// clean exit.
func (sup *supervisor) add(name string, fn stageFn, onExit func()) {
	sup.stages = append(sup.stages, &stage{name: name, fn: fn, onExit: onExit})
}

// start launches every stage under ctx plus the watchdog. The watchdog
// exits only when ctx is cancelled — it must outlive a graceful drain,
// so wait does not cover it; cancel ctx and receive on wdDone to reap it.
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

// run supervises one stage: invoke, recover panics, restart until the
// stage exits cleanly or the parent context dies.
func (sup *supervisor) run(ctx context.Context, st *stage) {
	defer sup.wg.Done()
	for {
		st.unpark() // an incarnation starts out working
		stageCtx, cancel := context.WithCancel(ctx)
		st.cancelMu.Lock()
		st.cancel = cancel
		st.cancelMu.Unlock()
		err := sup.invoke(stageCtx, st)
		cancel()
		if err == nil {
			st.done.Store(true)
			if st.onExit != nil {
				st.onExit()
			}
			return
		}
		if ctx.Err() != nil {
			// Hard abort: don't restart, don't run onExit (the exit was
			// not clean; the pipeline is tearing down anyway).
			st.done.Store(true)
			return
		}
		st.restarts.Add(1)
		mStageRestarts.Inc()
		sup.degrade(fmt.Sprintf("stage %s restarted: %v", st.name, err))
		sup.logf("live: stage %s restarting (#%d): %v", st.name, st.restarts.Load(), err)
	}
}

// invoke runs one incarnation of the stage with a panic fence.
func (sup *supervisor) invoke(ctx context.Context, st *stage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if err := st.fn(ctx, st); err != nil {
		return err
	}
	// A nil return under a watchdog-cancelled context is still a restart:
	// the incarnation was killed, not drained.
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// watchdog scans heartbeats and cancels stalled incarnations. Every
// blocking point in a stage is context-aware and parks the stage while it
// waits, so a stale heartbeat on an unparked stage means it is wedged
// mid-item; cancelling its context unwinds it and run relaunches it in
// (now) degraded mode.
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
		for _, st := range sup.stages {
			if !st.stale(sup.timeout) {
				continue
			}
			mWatchdogStalls.Inc()
			sup.degrade(fmt.Sprintf("stage %s stalled > %s", st.name, sup.timeout))
			sup.logf("live: watchdog: stage %s stalled, cancelling incarnation", st.name)
			st.beat() // arm the next detection window before the cancel lands
			st.cancelMu.Lock()
			if st.cancel != nil {
				st.cancel()
			}
			st.cancelMu.Unlock()
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
