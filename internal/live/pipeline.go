// Package live is the always-on streaming daemon: it runs the batch
// simulator's model stack as a continuous pipeline in simulated real
// time. Explicit stages — workload generation, dispatch, synthesis
// workers, windowed analytics — are connected by bounded queues, each
// edge with a declared backpressure policy (block upstream vs shed and
// count). A per-stage watchdog restarts wedged stages into degraded
// mode, and SIGTERM triggers a graceful drain that flushes trackers and
// finalizes analytics windows. See DESIGN.md §11.
package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/faults"
	"satwatch/internal/netsim"
	"satwatch/internal/obs"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

const (
	// intentDepth bounds the admitted-intent edge ahead of the shards.
	intentDepth = 1024
	// lookahead is how far ahead of the sim clock the generator may
	// admit intents (simulated).
	lookahead = 30 * time.Second
)

// Config parameterizes the daemon.
type Config struct {
	// Customers, Seed, Constellation and Faults configure the underlying
	// simulator exactly as a batch run would.
	Customers     int
	Seed          uint64
	Constellation string
	// Faults is recorded in the manifest under its own key, not the
	// config dump (matching netsim.Config).
	Faults *faults.Schedule `json:"-"`

	// Speedup is simulated seconds per wall second (default 60).
	Speedup float64
	// Workers is the synthesis shard count (default 4).
	Workers int
	// Rate is the initial workload multiplier (default 1). Values > 1
	// replicate intents at admission — an overload knob; the replicas get
	// fresh random streams so they diverge.
	Rate float64

	// Queue depths of the synthesis and record edges (defaults 256 per
	// shard / 4096); the intent edge holds intentDepth.
	WorkerDepth, RecordDepth int

	// Window and Grace shape the rolling analytics (simulated time;
	// defaults 10 min each).
	Window, Grace time.Duration

	// StallTimeout is the watchdog's heartbeat deadline (wall; default
	// 5 s). DrainTimeout bounds the graceful drain (wall; default 20 s).
	StallTimeout, DrainTimeout time.Duration

	// TraceSample enables live flight-recorder tracing of 1 in N
	// synthesized flows (0 disables; 1 traces everything). The sampling
	// key matches batch -trace-sample: a deterministic hash of
	// (customer, day, sequence), independent of worker count.
	TraceSample int
	// TraceDir, when set (and TraceSample > 0), writes traced flows to a
	// size-capped rotating JSONL log; TraceFileMaxBytes and
	// TraceKeepFiles shape rotation (internal/trace defaults).
	TraceDir          string
	TraceFileMaxBytes int64
	TraceKeepFiles    int

	// HistoryDir, when set, appends finalized window summaries to a
	// crash-tolerant JSONL log and replays it at startup, so restarts
	// keep their /analytics history and resume the sim clock past the
	// last persisted window.
	HistoryDir string

	// MetricsEvery is the /metrics/history sampling cadence in simulated
	// time (default 30 s).
	MetricsEvery time.Duration

	// Logf receives operational log lines; nil discards them. Excluded
	// from the manifest config dump.
	Logf func(format string, args ...any) `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Speedup <= 0 {
		c.Speedup = 60
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Rate <= 0 {
		c.Rate = 1
	}
	if c.WorkerDepth <= 0 {
		c.WorkerDepth = 256
	}
	if c.RecordDepth <= 0 {
		c.RecordDepth = 4096
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 20 * time.Second
	}
	if c.MetricsEvery <= 0 {
		c.MetricsEvery = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// intentItem is one admitted intent plus its run-unique sequence number
// (the key of its private random stream). admitNS is the wall-clock
// admission stamp for the queue-wait trace span; zero when tracing is
// off.
type intentItem struct {
	fi      workload.FlowIntent
	seq     uint64
	admitNS int64
}

// recordItem is either a flow or a DNS record on the analytics edge.
type recordItem struct {
	flow *tstat.FlowRecord
	dns  *tstat.DNSRecord
}

// Pipeline is the wired daemon. Build with New, drive with Run.
type Pipeline struct {
	cfg Config
	sim *netsim.LiveSim

	clock     *Clock
	source    *workload.Source
	intentQ   *Queue[intentItem]
	workerQs  []*Queue[intentItem]
	recordQ   *Queue[recordItem]
	analytics *Analytics
	sup       *supervisor

	// flowFree and dnsFree are the record edge's free lists: synth fills
	// a record from them per emission, analyze returns it once folded,
	// and synth returns one the edge shed. The edge carries pointers, not
	// records, so a deep record queue costs pointers until it fills.
	flowFree, dnsFree sync.Pool

	tracing     *Tracing
	history     *HistoryLog
	metricsHist *obs.History
	// resumeFrom is the simulated instant the clock restarts at after a
	// history replay; intents starting before it are already covered by
	// persisted windows. The source starts at resumeFrom's day and the
	// generator skips that day's earlier intents.
	resumeFrom time.Duration

	rateBits       atomic.Uint64 // math.Float64bits of the multiplier
	degraded       atomic.Bool
	degradedReason atomic.Pointer[string]
	seq            atomic.Uint64
	ready          atomic.Bool
	draining       atomic.Bool

	intents     atomic.Int64
	flowRecs    atomic.Int64
	dnsRecs     atomic.Int64
	activeFlows []atomic.Int64 // per worker shard

	workersLeft atomic.Int64
}

// New builds (but does not start) a pipeline.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	sim, err := netsim.NewLiveSim(netsim.Config{
		Customers: cfg.Customers, Seed: cfg.Seed,
		Constellation: cfg.Constellation, Faults: cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	prefixes, err := sim.CountryPrefixes()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:         cfg,
		sim:         sim,
		source:      workload.NewSource(sim.Customers(), sim.Root()),
		activeFlows: make([]atomic.Int64, cfg.Workers),
	}
	p.rateBits.Store(math.Float64bits(cfg.Rate))
	p.intentQ = NewQueue[intentItem](intentDepth, Block, qmIntents, &p.degraded)
	p.workerQs = make([]*Queue[intentItem], cfg.Workers)
	for i := range p.workerQs {
		p.workerQs[i] = NewQueue[intentItem](cfg.WorkerDepth, Shed, qmSynth, &p.degraded)
	}
	p.recordQ = NewQueue[recordItem](cfg.RecordDepth, Shed, qmRecords, &p.degraded)
	p.flowFree.New = func() any { return new(tstat.FlowRecord) }
	p.dnsFree.New = func() any { return new(tstat.DNSRecord) }
	p.analytics = NewAnalytics(cfg.Window, cfg.Grace, keepWindows, prefixes, &p.degraded)
	p.workersLeft.Store(int64(cfg.Workers))

	p.tracing, err = NewTracing(TracingConfig{
		SampleN: cfg.TraceSample,
		Dir:     cfg.TraceDir, MaxBytes: cfg.TraceFileMaxBytes, KeepFiles: cfg.TraceKeepFiles,
	})
	if err != nil {
		return nil, err
	}
	if cfg.HistoryDir != "" {
		h, prior, st, err := OpenHistory(cfg.HistoryDir)
		if err != nil {
			return nil, err
		}
		p.history = h
		if st.Skipped > 0 {
			cfg.Logf("live: history replay skipped %d corrupt lines", st.Skipped)
		}
		if len(prior) > 0 {
			p.analytics.Preload(prior)
			// Restart past the last persisted window: the clock resumes
			// there and already-covered intents are skipped, so the
			// replayed window list never collides with new ones.
			p.resumeFrom = prior[len(prior)-1].End
			cfg.Logf("live: replayed %d windows from %s, resuming at sim %s",
				len(prior), h.Path(), p.resumeFrom)
		}
		mHistoryReloaded.Set(float64(len(prior)))
		p.analytics.OnFinalize(func(s WindowSummary) {
			if err := p.history.Append(s); err != nil {
				mHistoryWriteErrors.Inc()
				p.cfg.Logf("live: %v", err)
			}
		})
	}
	// Days before the resume point would all be skipped at generation;
	// start the source at the resume day instead of regenerating them.
	p.source.StartAt(int(p.resumeFrom / workload.Day))
	p.clock = NewClock(cfg.Speedup, p.resumeFrom)
	p.metricsHist = obs.NewHistory(nil, obs.DefaultHistoryKeep)

	p.sup = &supervisor{
		timeout: cfg.StallTimeout,
		degrade: p.degrade,
		logf:    cfg.Logf,
	}
	return p, nil
}

// Sim exposes the underlying live simulator (control plane: fault and
// scenario swaps).
func (p *Pipeline) Sim() *netsim.LiveSim { return p.sim }

// Analytics exposes the rolling-window aggregator.
func (p *Pipeline) Analytics() *Analytics { return p.analytics }

// Tracing exposes the live flight recorder (nil when tracing is off).
func (p *Pipeline) Tracing() *Tracing { return p.tracing }

// MetricsHistory exposes the registry time-series sampler.
func (p *Pipeline) MetricsHistory() *obs.History { return p.metricsHist }

// ResumeFrom reports the simulated instant a history replay resumed the
// clock at (zero on a fresh start).
func (p *Pipeline) ResumeFrom() time.Duration { return p.resumeFrom }

// Clock exposes the simulation clock.
func (p *Pipeline) Clock() *Clock { return p.clock }

// Rate returns the live workload multiplier.
func (p *Pipeline) Rate() float64 { return math.Float64frombits(p.rateBits.Load()) }

// SetRate updates the workload multiplier (values clamped to [0, 100]).
func (p *Pipeline) SetRate(m float64) error {
	if math.IsNaN(m) || m < 0 || m > 100 {
		return fmt.Errorf("live: rate multiplier %v out of range [0, 100]", m)
	}
	p.rateBits.Store(math.Float64bits(m))
	return nil
}

// Degraded reports whether the daemon is in degraded mode and why.
func (p *Pipeline) Degraded() (bool, string) {
	if !p.degraded.Load() {
		return false, ""
	}
	if r := p.degradedReason.Load(); r != nil {
		return true, *r
	}
	return true, "unknown"
}

// degrade flips the daemon into degraded mode (idempotent; first reason
// wins).
func (p *Pipeline) degrade(reason string) {
	if p.degraded.CompareAndSwap(false, true) {
		p.degradedReason.Store(&reason)
		mDegraded.Set(1)
		p.cfg.Logf("live: entering degraded mode: %s", reason)
	}
}

// Ready reports whether the pipeline is running and not draining (for
// /readyz).
func (p *Pipeline) Ready() bool { return p.ready.Load() && !p.draining.Load() }

// Stalled returns the names of currently stalled stages (for /healthz).
// Before Run has launched the stages there is nothing to stall, and the
// stage list is still being built: ready is what publishes it.
func (p *Pipeline) Stalled() []string {
	if !p.ready.Load() {
		return nil
	}
	return p.sup.stalled()
}

// Progress is the /progress and manifest snapshot.
type Progress struct {
	SimSeconds  float64  `json:"sim_seconds"`
	Day         int      `json:"day"`
	Scenario    string   `json:"scenario"`
	Rate        float64  `json:"rate_multiplier"`
	Intents     int64    `json:"intents"`
	FlowRecords int64    `json:"flow_records"`
	DNSRecords  int64    `json:"dns_records"`
	ActiveFlows int64    `json:"active_flows"`
	Windows     int      `json:"windows_finalized"`
	Traced      uint64   `json:"traced_flows,omitempty"`
	Faults      string   `json:"faults_active,omitempty"`
	Degraded    bool     `json:"degraded"`
	Reason      string   `json:"degraded_reason,omitempty"`
	Stalled     []string `json:"stalled_stages,omitempty"`
	QueueDepths struct {
		Intents int `json:"intents"`
		Synth   int `json:"synth"`
		Records int `json:"records"`
	} `json:"queue_depths"`
}

// Progress snapshots the run state.
func (p *Pipeline) Progress() Progress {
	var pr Progress
	now := p.clock.Now()
	pr.SimSeconds = now.Seconds()
	pr.Day = int(now / (24 * time.Hour))
	pr.Scenario = p.sim.ScenarioName()
	pr.Rate = p.Rate()
	pr.Intents = p.intents.Load()
	pr.FlowRecords = p.flowRecs.Load()
	pr.DNSRecords = p.dnsRecs.Load()
	pr.ActiveFlows = p.activeFlowsTotal()
	pr.Windows = len(p.analytics.Recent())
	pr.Traced = p.tracing.Total()
	if sched := p.sim.Faults(); sched != nil {
		pr.Faults = sched.Name
	}
	pr.Degraded, pr.Reason = p.Degraded()
	pr.Stalled = p.Stalled()
	pr.QueueDepths.Intents = p.intentQ.Len()
	for _, q := range p.workerQs {
		pr.QueueDepths.Synth += q.Len()
	}
	pr.QueueDepths.Records = p.recordQ.Len()
	return pr
}

func (p *Pipeline) activeFlowsTotal() int64 {
	var n int64
	for i := range p.activeFlows {
		n += p.activeFlows[i].Load()
	}
	return n
}

// QueueDepths returns the per-edge buffered totals (soak assertions).
func (p *Pipeline) QueueDepths() (intents, synth, records int) {
	intents = p.intentQ.Len()
	for _, q := range p.workerQs {
		synth += q.Len()
	}
	records = p.recordQ.Len()
	return
}

// ErrDrainTimeout reports that the graceful drain did not finish inside
// Config.DrainTimeout and the pipeline was hard-aborted.
var ErrDrainTimeout = errors.New("live: drain timed out, pipeline aborted")

// Run starts every stage and blocks until ctx is cancelled, then drains:
// the generator stops, queues empty downstream, workers flush their
// trackers, and analytics finalizes every open window. Returns nil on a
// clean drain, ErrDrainTimeout when the drain had to be aborted.
func (p *Pipeline) Run(ctx context.Context) error {
	// Stage lifetimes are decoupled from ctx: they must outlive it to
	// drain. hardCtx is the abort hammer of last resort.
	hardCtx, hardAbort := context.WithCancel(context.Background())
	defer hardAbort()

	drainCh := make(chan struct{})
	genR := p.sim.Root().Fork("live-rate")
	p.sup.addStage("generate", func(sctx context.Context, st *stage) error {
		return p.generate(sctx, drainCh, genR, st)
	}, p.intentQ.Close)
	p.sup.addStage("dispatch", p.dispatch, func() {
		for _, q := range p.workerQs {
			q.Close()
		}
	})
	for i := 0; i < p.cfg.Workers; i++ {
		i := i
		p.sup.addStage(fmt.Sprintf("synth-%d", i), func(sctx context.Context, st *stage) error {
			return p.synth(sctx, i, st)
		}, func() {
			if p.workersLeft.Add(-1) == 0 {
				p.recordQ.Close()
			}
		})
	}
	p.sup.addStage("analytics", p.analyze, p.analytics.Finalize)
	p.sup.add("sampler", func(sctx context.Context, beat func()) error {
		return p.sampleMetrics(sctx, drainCh, beat)
	}, nil)

	p.sup.start(hardCtx)
	p.ready.Store(true)
	<-ctx.Done()

	p.draining.Store(true)
	p.cfg.Logf("live: draining (timeout %s)", p.cfg.DrainTimeout)
	close(drainCh)
	done := make(chan struct{})
	go func() { p.sup.wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(p.cfg.DrainTimeout):
		hardAbort()
		<-done
		p.analytics.Finalize()
		err = ErrDrainTimeout
	}
	p.ready.Store(false)
	hardAbort() // reap the watchdog
	<-p.sup.wdDone
	// All stages are down: the finalize hook cannot fire again and no
	// worker holds a trace handle, so the persistence sinks close now.
	if cerr := p.history.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := p.tracing.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// sampleMetrics snapshots the registry into the /metrics/history ring
// every Config.MetricsEvery simulated seconds. It ticks on a short wall
// interval so heartbeats stay fresh even at low speedups.
func (p *Pipeline) sampleMetrics(ctx context.Context, drain <-chan struct{}, beat func()) error {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	next := p.clock.Now() + p.cfg.MetricsEvery
	for {
		beat()
		select {
		case <-drain:
			return nil
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		if now := p.clock.Now(); now >= next {
			p.metricsHist.Sample(now.Seconds())
			next = now + p.cfg.MetricsEvery
		}
	}
}

// generate is the source stage: it paces intents against the sim clock
// and admits them (times the rate multiplier) onto the blocking intent
// queue. Exits cleanly when drain closes.
func (p *Pipeline) generate(ctx context.Context, drain <-chan struct{}, r *dist.Rand, st *stage) error {
	// One pacing timer for the incarnation, stopped until the first wait.
	pace := time.NewTimer(time.Hour)
	pace.Stop()
	defer pace.Stop()
	for {
		st.beat()
		select {
		case <-drain:
			return nil
		case <-ctx.Done():
			return nil
		default:
		}
		fi := *p.source.Next() // copy: the source reuses its buffer per day
		if fi.Start < p.resumeFrom {
			// History replay already covers this instant of the resume
			// day; regenerating it would double-count into finalized
			// (persisted) windows.
			continue
		}

		// Pace: hold, parked, until the sim clock is within lookahead of
		// the intent's start. The timer fired (and was received) before
		// each Reset, so no stale tick is left in its channel.
		for {
			wait := p.clock.WallUntil(fi.Start - lookahead)
			if wait <= 0 {
				break
			}
			pace.Reset(wait)
			st.park()
			select {
			case <-drain:
				return nil
			case <-ctx.Done():
				return nil
			case <-pace.C:
			}
			st.unpark()
		}
		// Rate multiplier: floor copies plus a Bernoulli trial on the
		// fraction. Replicas get distinct sequence numbers, hence
		// distinct random streams downstream.
		rate := p.Rate()
		n := int(rate)
		if frac := rate - float64(n); frac > 0 && r.Float64() < frac {
			n++
		}
		for c := 0; c < n; c++ {
			item := intentItem{fi: fi, seq: p.seq.Add(1)}
			if p.tracing != nil {
				item.admitNS = time.Now().UnixNano()
			}
			if !p.intentQ.Push(ctx, item, st) {
				return nil // cancelled mid-push
			}
			p.intents.Add(1)
			mIntents.Inc()
		}
	}
}

// dispatch shards intents to workers by customer ID (each customer's
// port allocator and tracker state must stay on one goroutine). The
// worker edges shed under overload.
func (p *Pipeline) dispatch(ctx context.Context, st *stage) error {
	for {
		st.beat()
		item, ok := p.intentQ.Pop(ctx, st)
		if !ok {
			return nil // drained, or a hard abort the supervisor sorts out
		}
		shard := item.fi.Customer.ID % p.cfg.Workers
		p.workerQs[shard].Push(ctx, item, st) // Shed: drop + count when full
	}
}

// synth is one synthesis shard: a LiveWorker owning a tracker whose
// records stream onto the analytics queue. Restarts build a fresh
// worker (in-flight flows of the old incarnation are lost — degraded).
//
// Trace handles finish on this goroutine — either inside the tracker's
// record emission (immediately before the OnFlow callback) or directly
// on the failure path — and are buffered worker-locally until the end
// of the iteration, when every span has been appended; only then are
// they published to the shared ring. `fresh` marks a handle finished
// synchronously by the emission the current callback belongs to, which
// is the only moment the analytics-admit span can be attributed safely;
// it is cleared between Process and Advance so a directly-finished
// handle (beam outage) can never steal a later record's admit span.
func (p *Pipeline) synth(ctx context.Context, shard int, st *stage) error {
	var pending []*trace.Flow
	fresh := false
	sink := trace.SinkFunc(func(f *trace.Flow) {
		pending = append(pending, f)
		fresh = true
	})
	takeFresh := func() *trace.Flow {
		if !fresh {
			return nil
		}
		fresh = false
		return pending[len(pending)-1]
	}
	publishPending := func() {
		for _, f := range pending {
			p.tracing.Publish(f)
		}
		pending = pending[:0]
		fresh = false
	}
	w := p.sim.NewWorker(
		func(rec tstat.FlowRecord) {
			fl := takeFresh()
			r := p.flowFree.Get().(*tstat.FlowRecord)
			*r = rec
			start := time.Time{}
			if fl != nil {
				start = time.Now()
			}
			ok := p.recordQ.Push(ctx, recordItem{flow: r}, st)
			if fl != nil {
				fl.Span(trace.SpanLiveAdmit, trace.SegProbe, time.Since(start),
					trace.Attrs{"admitted": ok})
			}
			if ok {
				p.flowRecs.Add(1)
				mFlowRecords.Inc()
			} else {
				p.flowFree.Put(r)
			}
		},
		func(rec tstat.DNSRecord) {
			r := p.dnsFree.Get().(*tstat.DNSRecord)
			*r = rec
			if p.recordQ.Push(ctx, recordItem{dns: r}, st) {
				p.dnsRecs.Add(1)
			} else {
				p.dnsFree.Put(r)
			}
		},
	)
	defer func() {
		p.activeFlows[shard].Store(0)
		p.publishActiveFlows()
	}()
	for {
		st.beat()
		item, ok := p.workerQs[shard].Pop(ctx, st)
		if !ok {
			if ctx.Err() == nil {
				w.Flush() // graceful drain: emit everything in flight
			}
			publishPending()
			return nil
		}
		var fl *trace.Flow
		var synthStart time.Time
		if p.tracing != nil {
			day := int(item.fi.Start / (24 * time.Hour))
			fl = p.tracing.Start(sink, item.fi.Customer.ID, day, int(item.seq))
			if fl != nil {
				if item.admitNS != 0 {
					fl.Span(trace.SpanLiveQueueWait, trace.SegProbe,
						time.Since(time.Unix(0, item.admitNS)), nil)
				}
				synthStart = time.Now()
			}
		}
		if err := w.Process(&item.fi, item.seq, fl); err != nil {
			mSynthErrors.Inc()
			p.cfg.Logf("live: synth-%d: %v", shard, err)
		}
		if fl != nil {
			fl.Span(trace.SpanLiveSynth, trace.SegProbe, time.Since(synthStart),
				trace.Attrs{"shard": shard})
		}
		fresh = false // direct finishes (failure paths) must not claim admit spans
		w.Advance(p.clock.Now())
		publishPending()
		p.activeFlows[shard].Store(int64(w.ActiveFlows()))
		p.publishActiveFlows()
	}
}

func (p *Pipeline) publishActiveFlows() {
	mActiveFlows.Set(float64(p.activeFlowsTotal()))
}

// analyze folds the record stream into rolling windows, returning each
// record to the edge's free list once folded.
func (p *Pipeline) analyze(ctx context.Context, st *stage) error {
	for {
		st.beat()
		item, ok := p.recordQ.Pop(ctx, st)
		if !ok {
			return nil
		}
		switch {
		case item.flow != nil:
			p.analytics.AddFlow(*item.flow)
			p.flowFree.Put(item.flow)
		case item.dns != nil:
			p.analytics.AddDNS(*item.dns)
			p.dnsFree.Put(item.dns)
		}
	}
}
