package netsim

// Live-mode access to the batch synthesizer: internal/live runs an
// always-on daemon that feeds flow intents through the same model stack
// (geo/phy/mac/pepmodel/shaper/cdn/dnssim) one intent at a time instead
// of in two whole-window passes. LiveSim owns the shared, read-only
// deployment (population, dimensioned beam loads, anonymizer) plus two
// atomically swappable knobs the control plane drives at runtime: the
// fault schedule and the models (constellation + matching MAC model).
// LiveWorker is the per-goroutine synthesis handle; intents must be
// sharded to workers by customer ID so each customer's port allocator and
// tracker stay single-goroutine.

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/mac"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// LiveSim is the shared state of a live run. All methods are
// goroutine-safe; per-flow synthesis happens on LiveWorkers.
type LiveSim struct {
	cfg Config
	dep *deployment

	// mod is swapped as one unit; workers detect a swap by the pointer
	// moving and rebuild their synthesizer.
	mod   atomic.Pointer[models]
	sched atomic.Pointer[faults.Schedule]
}

// NewLiveSim builds the live simulator: the deployment dimensioned over
// one day (the periodic load profile every later day reuses — exactly
// what a batch run of day 0 dimensions) and the start-up constellation's
// models. cfg.Days is ignored — a live run has no window — and the intent
// cache is off: the generator stage produces intents as the clock reaches
// them.
func NewLiveSim(cfg Config) (*LiveSim, error) {
	cfg.Days = 1
	cfg.IntentCacheBytes = -1
	cfg = cfg.withDefaults()
	dep, err := newDeployment(cfg)
	if err != nil {
		return nil, err
	}
	for _, sh := range dep.dimension(context.Background(), cfg, dep.workers(cfg.Parallelism), true) {
		if len(sh.errs) > 0 {
			return nil, errors.New(sh.errs[0])
		}
	}
	lv := &LiveSim{cfg: cfg, dep: dep}
	lv.sched.Store(cfg.Faults)
	if err := lv.install(cfg.Constellation, cfg.MAC); err != nil {
		return nil, err
	}
	return lv, nil
}

// install builds, pre-builds and publishes the models for a constellation.
func (lv *LiveSim) install(constellation string, macOverride mac.Params) error {
	m, err := newModels(constellation, lv.cfg.Seed, macOverride)
	if err != nil {
		return err
	}
	m.mac.Prebuild(0)
	lv.mod.Store(m)
	return nil
}

// SwapScenario hot-swaps the constellation on a running daemon; its MAC
// model takes the orbit-matched defaults (Config.MAC described the
// start-up constellation). Beam loads are a function of (population,
// seed), not of the orbit, so they are untouched. In-flight workers pick
// the new models up at their next intent.
func (lv *LiveSim) SwapScenario(constellation string) error {
	return lv.install(constellation, mac.Params{})
}

// ScenarioName returns the active constellation name.
func (lv *LiveSim) ScenarioName() string { return lv.mod.Load().con.Name() }

// SetFaults atomically replaces the fault schedule consulted by every
// worker from its next intent on. nil restores clear skies.
func (lv *LiveSim) SetFaults(s *faults.Schedule) {
	lv.sched.Store(s)
	faults.RecordActive(s)
}

// Faults returns the active fault schedule (nil for clear skies).
func (lv *LiveSim) Faults() *faults.Schedule { return lv.sched.Load() }

// Customers returns the generated population, indexed by customer ID.
func (lv *LiveSim) Customers() []*workload.Customer { return lv.dep.customers }

// CountryPrefixes maps anonymized /N prefixes to countries — the same
// prefix-preserving join a batch run records in Output.CountryPrefixes,
// so live analytics can attribute anonymized records geographically. The
// error is always nil (the join is validated when the simulator is built).
func (lv *LiveSim) CountryPrefixes() (map[netip.Prefix]geo.CountryCode, error) {
	return lv.dep.prefixes, nil
}

// Root returns the run's root random stream; fork, never consume.
func (lv *LiveSim) Root() *dist.Rand { return lv.dep.root }

// LiveWorker synthesizes intents on one goroutine: it owns a private
// tracker (streaming records out through the OnFlow/OnDNS callbacks) and
// a synthesizer rebuilt whenever the models are swapped. Not
// goroutine-safe — one goroutine per worker, intents sharded by customer.
type LiveWorker struct {
	lv      *LiveSim
	tracker *tstat.Tracker
	syn     *synthesizer
	mod     *models // what syn was built over
	// rng is the current intent's random stream, re-seeded per intent.
	rng dist.Rand
}

// NewWorker builds a live synthesis worker. onFlow/onDNS receive records
// as flows idle out or close; they run on the worker's goroutine.
func (lv *LiveSim) NewWorker(onFlow func(tstat.FlowRecord), onDNS func(tstat.DNSRecord)) *LiveWorker {
	w := &LiveWorker{
		lv: lv,
		tracker: tstat.NewTracker(tstat.Config{
			Anonymizer: lv.dep.anon, OnFlow: onFlow, OnDNS: onDNS,
		}),
	}
	w.refresh()
	return w
}

// refresh rebuilds the synthesizer after a scenario swap and re-reads the
// fault schedule pointer (cheap; done per intent).
func (w *LiveWorker) refresh() {
	if m := w.lv.mod.Load(); m != w.mod {
		w.syn = newSynthesizer(w.lv.cfg, w.lv.dep, m, nil, w.tracker)
		w.mod = m
	}
	w.syn.sched = w.lv.sched.Load()
}

// Process synthesizes one intent into tracker events. seq must be unique
// per intent across the run (the pipeline's intent sequence number): it
// keys the flow's private random stream, so replicated intents (overload
// multipliers) still diverge. fl is an optional flight-recorder handle
// (nil when the flow is unsampled or live tracing is off); the
// synthesizer appends model spans to it and hands it to the tracker,
// which finishes it at record emission.
func (w *LiveWorker) Process(fi *workload.FlowIntent, seq uint64, fl *trace.Flow) error {
	w.refresh()
	w.rng.SetForkN(w.lv.dep.root, "live-synth", seq)
	if err := w.syn.flow(fi, &w.rng, fl); err != nil {
		return fmt.Errorf("netsim: live intent %d: %w", seq, err)
	}
	mFlows.Inc()
	return nil
}

// Advance moves the worker's tracker clock to simT, emitting flows that
// have idled out even if this shard saw no recent traffic.
func (w *LiveWorker) Advance(simT time.Duration) { w.tracker.AdvanceTime(simT) }

// ActiveFlows returns the tracker's in-flight flow count.
func (w *LiveWorker) ActiveFlows() int { return w.tracker.Active() }

// Flush force-emits every in-flight flow through the callbacks — the
// drain step of a graceful shutdown.
func (w *LiveWorker) Flush() { w.tracker.Flush() }
