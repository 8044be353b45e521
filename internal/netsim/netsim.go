// Package netsim is the integrated deployment simulator: it drives the
// workload population through the satellite network models (geometry, PHY,
// MAC, PEP, shaper, CDN, DNS) and synthesizes the packet/segment stream a
// probe at the ground station would capture, feeding it straight into the
// tstat tracker. Every latency component of the resulting records is
// produced by an explicit mechanism:
//
//	satellite RTT = 4 slant-path passes (geo) + uplink MAC access (mac)
//	              + downlink queueing (mac) + PEP setup sojourn (pepmodel)
//	ground RTT    = hosting-region path (cdn) chosen by the customer's
//	                resolver view (dnssim)
//	throughput    = plan shaping (shaper) x beam congestion x terminal
//	                and AP contention factors, rolled out by tcpmodel
//
// The simulator runs in two passes over the same worker partition
// (customers striped across workers): pass A generates every customer-day
// workload in parallel and aggregates offered load per (beam, hour) into
// per-worker integer shards, reduced exactly by beam ID to dimension beam
// capacity and PEP resources; pass B synthesizes the flow timelines under
// the resulting utilization, reusing the pass-A intents through a
// memory-bounded cache (regenerating deterministically when the budget
// spilled them). Each worker sorts its log chunks in parallel, and one
// k-way merge combines every worker's chunks, so the output is
// byte-identical at any worker count.
package netsim

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/dnssim"
	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/mac"
	"satwatch/internal/obs"
	"satwatch/internal/pepmodel"
	"satwatch/internal/prof"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// Exported metrics (see OBSERVABILITY.md).
var (
	mPassA = obs.NewGauge("netsim_pass_a_seconds",
		"Wall time of pass A (parallel workload generation and beam dimensioning) of the last run.", "seconds")
	mPassB = obs.NewGauge("netsim_pass_b_seconds",
		"Wall time of pass B (parallel flow synthesis and tracking) of the last run.", "seconds")
	mMACPrebuild = obs.NewGauge("netsim_mac_prebuild_seconds",
		"Wall time spent pre-building the full MAC access-delay grid between passes.", "seconds")
	mMerge = obs.NewGauge("netsim_merge_seconds",
		"Wall time of the k-way merge of per-worker sorted logs of the last run.", "seconds")
	mWorkers = obs.NewGauge("netsim_workers",
		"Effective worker count (both passes) of the last run.", "")
	mCustomersTotal = obs.NewGauge("netsim_customers_total",
		"Population size of the last run.", "")
	mCustomersDone = obs.NewCounter("netsim_customers_done_total",
		"Customers fully synthesized by pass-B workers.", "")
	mFlows = obs.NewCounter("netsim_flows_total",
		"Flow intents synthesized into tracker events.", "")
	mWorkerRate = obs.NewHistogram("netsim_worker_flows_per_second",
		"Per-worker pass-B flow synthesis throughput (one sample per worker per run).", "flows/s",
		obs.ExpBuckets(100, 2, 14))
	mIntentCacheHits = obs.NewCounter("netsim_intent_cache_hits_total",
		"Customer-days whose pass-A intents were reused in pass B without regeneration.", "")
	mIntentCacheSpills = obs.NewCounter("netsim_intent_cache_spills_total",
		"Customer-days dropped from the intent cache by the byte budget (regenerated in pass B).", "")
	mFlowsDegraded = obs.NewCounter("netsim_flows_degraded_total",
		"Flows shaped or killed by at least one scheduled fault event (internal/faults).", "")
	mWorkerRecoveries = obs.NewCounter("netsim_worker_recoveries_total",
		"Worker panics recovered into per-customer errors instead of crashing the run.", "")
	mCustomersSalvaged = obs.NewCounter("netsim_customers_salvaged_total",
		"Customers whose logs were salvaged from a degraded or interrupted run.", "")
	// Pass-B allocation accounting (runtime allocation-counter delta over
	// the stage; see internal/prof). The other stages' deltas are in the
	// manifest allocs block only.
	mPassBAllocBytes = obs.NewCounter("netsim_pass_b_alloc_bytes_total",
		"Heap bytes allocated during pass B (flow synthesis, tracking and per-worker sorts).", "bytes")
	mPassBAllocs = obs.NewCounter("netsim_pass_b_allocs_total",
		"Heap objects allocated during pass B.", "")
)

// Test hooks (nil outside tests). testHookSynthCustomer runs at the top
// of every customer synthesis; testHookAfterPassA runs once between the
// passes. They let tests inject panics and cancellations at exact points.
var (
	testHookSynthCustomer func(customerID int)
	testHookAfterPassA    func()
)

// Run status values, surfaced through RunStats.Status and the manifest.
const (
	// StatusOK: every customer synthesized, no errors.
	StatusOK = "ok"
	// StatusDegraded: the run completed but dropped customers (recovered
	// panics or serialization errors); outputs are valid but incomplete.
	StatusDegraded = "degraded"
	// StatusPartial: the run was interrupted; outputs hold whatever the
	// workers finished flushing.
	StatusPartial = "partial"
)

// intentCacheBytes bounds the pass-A→pass-B intent cache: laptop-scale
// runs fit entirely and skip the second workload generation, while
// operator-scale runs degrade gracefully to regeneration once the budget
// is spent. Intents beyond it are regenerated deterministically in pass
// B, so the budget trades memory for generation time without affecting
// output.
const intentCacheBytes = 512 << 20

// Config parameterizes a simulation run. Zero fields take the effective
// defaults applied by Run: 400 customers, 2 days (matching
// DefaultConfig), seed 0, GOMAXPROCS workers, per-field MAC defaults
// (mac.DefaultParams); the PEP is always pepmodel.Default.
type Config struct {
	// Customers is the population size; Days the observation window.
	Customers int
	Days      int
	// Seed drives all randomness; identical configs produce identical logs.
	Seed uint64
	// Parallelism is the number of simulation workers for both passes
	// (0 → GOMAXPROCS). Both passes partition by customer, pass-A load
	// aggregation reduces integer shards exactly, and the per-worker logs
	// are k-way merged in a canonical total order, so results depend only
	// on Seed — byte-identical at any worker count.
	Parallelism int

	// Constellation selects the orbit backend: "geo" (default; the
	// paper's fixed 550 ms geometry) or "leo" (a seeded low-earth shell
	// with time-varying 15–60 ms RTTs, satellite handovers and gateway
	// diversity — see geo.ConstellationByName). Recorded in the manifest
	// config dump.
	Constellation string

	// MAC overrides the data-link dimensioning (zero fields → defaults
	// matched to the constellation: mac.DefaultParams for geo,
	// mac.LEOParams for leo).
	MAC mac.Params

	// Trace, when non-nil, records a per-flow latency-decomposition span
	// tree for sampled flows (see internal/trace). Nil disables tracing;
	// the hot-path cost of the disabled state is a nil check. The caller
	// owns the tracer and must Close it after Run returns. Excluded from
	// the manifest config dump.
	Trace *trace.Tracer `json:"-"`

	// Ablations (DESIGN.md A1-A4).
	//
	// DisablePEP removes the PEP setup sojourn from the satellite path.
	DisablePEP bool
	// DisableMAC replaces the MAC access delays with zero (ideal access).
	DisableMAC bool
	// AfricanGroundStation adds a second gateway in Africa: African
	// customers reaching African-hosted services no longer hairpin
	// through Italy (§6.2's discussed optimization).
	AfricanGroundStation bool
	// ForceOperatorDNS makes every customer use the operator resolver
	// (§6.4's proposed fix).
	ForceOperatorDNS bool

	// Faults, when non-nil, is the deterministic fault schedule the run
	// plays back (rain fronts, beam outages, gateway switchovers, PEP
	// overloads, resolver outages — internal/faults). Nil means clear
	// skies: the output is byte-identical to a run without fault support.
	// Recorded in the manifest under its own key, not the config dump.
	Faults *faults.Schedule `json:"-"`
}

// DefaultConfig returns a laptop-scale run: 400 customers over 2 days.
func DefaultConfig() Config {
	return Config{Customers: 400, Days: 2, Seed: 1, MAC: mac.DefaultParams()}
}

func (c Config) withDefaults() Config {
	if c.Customers <= 0 {
		c.Customers = 400
	}
	if c.Days <= 0 {
		c.Days = 2
	}
	if c.Constellation == "" {
		c.Constellation = "geo"
	}
	c.MAC = matchedMAC(c.Constellation, c.MAC)
	return c
}

// CustomerMeta is the operator-side metadata joined to anonymized records
// during analysis (the paper's §3.1 enrichment, done "with the support of
// the SatCom operator").
type CustomerMeta struct {
	Country geo.CountryCode
	Beam    int
	Type    workload.CustomerType
	PlanMbs float64
	// Multiplex is the number of end-users behind the CPE.
	Multiplex int
	// Resolver is the resolver this customer's devices use.
	Resolver dnssim.ResolverID
}

// BeamStat summarizes one beam over the run (Figure 8b inputs).
type BeamStat struct {
	Beam     int
	Country  geo.CountryCode
	PeakUtil float64 // utilization at the beam's busiest hour
}

// RunStats are the per-stage wall timings and worker statistics of one
// Run, feeding the run manifest (see ManifestFor) and the progress line.
type RunStats struct {
	// PassA / PassB are the wall times of the two simulator passes.
	PassA time.Duration
	PassB time.Duration
	// MACPrebuild is the wall time spent pre-building the MAC grid
	// between the passes (near zero when the process-wide cell cache is
	// already warm).
	MACPrebuild time.Duration
	// Merge is the wall time of the final k-way merge of per-worker logs.
	Merge time.Duration
	// Workers is the effective parallelism of both passes
	// (Config.Parallelism resolved against GOMAXPROCS and the population
	// size).
	Workers int
	// WorkerFlows is the number of flow intents each worker synthesized.
	WorkerFlows []int
	// IntentCacheHits / IntentCacheSpills count customer-days whose
	// pass-A intents were reused in pass B vs. regenerated because the
	// cache byte budget was exhausted.
	IntentCacheHits   int
	IntentCacheSpills int
	// Errors collects the per-customer failures (recovered panics,
	// serialization errors) of a degraded run, sorted for determinism.
	Errors []string
	// CustomersDone counts customers fully synthesized in pass B.
	CustomersDone int
	// Interrupted is set when the run's context was cancelled and the
	// outputs hold only what the workers had finished.
	Interrupted bool
	// StageAllocs maps stage name (same keys as the manifest timings:
	// "pass_a", "mac_prebuild", "pass_b", "merge") to the stage's
	// allocation delta, read from the runtime allocation counters at the
	// stage boundaries by internal/prof.
	StageAllocs map[string]obs.AllocInfo
}

// Status folds the run outcome into the manifest status field: "partial"
// when interrupted, "degraded" when customers were dropped, "ok" otherwise.
func (s RunStats) Status() string {
	switch {
	case s.Interrupted:
		return StatusPartial
	case len(s.Errors) > 0:
		return StatusDegraded
	default:
		return StatusOK
	}
}

// Flows returns the total flow intents synthesized across workers.
func (s RunStats) Flows() int {
	total := 0
	for _, n := range s.WorkerFlows {
		total += n
	}
	return total
}

// AllocBytesPerFlow derives the run's per-flow allocation cost: the sum
// of the per-stage allocation byte deltas over the flow count. 0 when
// the run produced no flows or alloc accounting did not run.
func (s RunStats) AllocBytesPerFlow() float64 {
	n := s.Flows()
	if n == 0 {
		return 0
	}
	var total uint64
	for _, a := range s.StageAllocs {
		total += a.Bytes
	}
	return float64(total) / float64(n)
}

// Output is everything a run produces.
type Output struct {
	Flows []tstat.FlowRecord
	DNS   []tstat.DNSRecord
	// Meta maps anonymized client addresses to operator metadata.
	Meta map[netip.Addr]CustomerMeta
	// CountryPrefixes maps anonymized /16 prefixes to countries.
	CountryPrefixes map[netip.Prefix]geo.CountryCode
	// Beams carries per-beam load statistics, ordered by beam ID.
	Beams []BeamStat
	// Epoch is the wall-clock instant of simulated time zero (UTC
	// midnight), for pcap export.
	Epoch time.Time
	// Faults is the effective fault schedule the run played back:
	// Config.Faults plus any constellation-contributed events (LEO
	// handovers). Recorded in the manifest; nil for clear-sky GEO runs.
	Faults *faults.Schedule
	// Stats carries the run's wall timings and worker statistics.
	Stats RunStats

	// What WritePcap re-synthesizes the run's flows from: the effective
	// config (tracing off), the deployment and the models. Nil for an
	// Output read back from logs.
	cfg Config
	dep *deployment
	mod *models
}

// hourOf returns the absolute hour index of a simulation timestamp.
func hourOf(t time.Duration) int { return int(t / time.Hour) }

// beamLoad accumulates pass-A aggregates for one beam.
type beamLoad struct {
	beam       geo.Beam
	bytesHour  []float64 // offered bytes per absolute hour
	setupsHour []float64 // connection setups per absolute hour
	capacity   float64   // bytes/sec, dimensioned after pass A
	pepPeak    float64   // setups/sec at the dimensioning peak
	// wrap makes the hourly profile periodic: the live pipeline
	// dimensions one day and indexes it forever with hour % len, while a
	// batch run keeps the absolute out-of-range → zero-load behavior.
	wrap bool
}

func (b *beamLoad) hourIdx(hour int) int {
	if b.wrap && len(b.bytesHour) > 0 && hour >= 0 {
		return hour % len(b.bytesHour)
	}
	return hour
}

func (b *beamLoad) util(hour int) float64 {
	hour = b.hourIdx(hour)
	if b.capacity <= 0 || hour < 0 || hour >= len(b.bytesHour) {
		return 0
	}
	return b.bytesHour[hour] / 3600 / b.capacity
}

func (b *beamLoad) pepRho(hour int, factor float64) float64 {
	hour = b.hourIdx(hour)
	if hour < 0 || hour >= len(b.setupsHour) {
		return 0
	}
	return pepmodel.Rho(b.setupsHour[hour]/3600, b.pepPeak, factor)
}

// beamStats summarizes a load table for Output.Beams. loads is indexed by
// beam ID, so the result is ordered by beam ID.
func beamStats(loads []*beamLoad, hours int) []BeamStat {
	var out []BeamStat
	for _, bl := range loads {
		if bl == nil {
			continue
		}
		var peak float64
		for h := 0; h < hours; h++ {
			peak = max(peak, bl.util(h))
		}
		out = append(out, BeamStat{Beam: bl.beam.ID, Country: bl.beam.Country, PeakUtil: peak})
	}
	return out
}

// workerOut is one pass-B worker's private output. Records go into the
// logs as the tracker emits them; once the worker is done, each chunk is
// sorted and becomes one run of the final merge.
type workerOut struct {
	flowLog chunkLog[tstat.FlowRecord]
	dnsLog  chunkLog[tstat.DNSRecord]
	intents int
	errs    []string
	done    int
}

// logChunk is how many records one chunk of a chunkLog holds.
const logChunk = 1024

// chunkLog is an append-only record log kept in fixed-size chunks, so it
// never copies what it holds as it grows: append regrows a large slice by
// about 1.25x at a time, which allocates a pass-B worker's log about five
// times over. The merge reads the sorted chunks straight into Output, so
// a record is written twice: into its chunk and into the merged log.
type chunkLog[T any] struct {
	chunks [][]T
	n      int
}

func (l *chunkLog[T]) add(r T) {
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, make([]T, 0, logChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, r)
	l.n++
}

// synthCustomer synthesizes one customer's full observation window,
// recovering panics from the model stack into an error naming the
// customer and day; the worker drops that customer and keeps going.
func synthCustomer(syn *synthesizer, sh *passAShard, root *dist.Rand, cfg Config, c *workload.Customer, local int, out *workerOut) (err error) {
	day := -1
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("netsim: synthesize customer %d day %d: panic: %v", c.ID, day, p)
		}
	}()
	if testHookSynthCustomer != nil {
		testHookSynthCustomer(c.ID)
	}
	for day = 0; day < cfg.Days; day++ {
		slot := local*cfg.Days + day
		if sh.failed[slot] {
			continue
		}
		intents := sh.cache[slot]
		if intents != nil {
			sh.cache[slot] = nil // consumed; release for GC
			sh.hits++
		} else {
			r := root.ForkN("day", uint64(c.ID)*1024+uint64(day))
			var gerr error
			sh.scratch, gerr = generateDaySafe(sh.scratch[:0], c, day, r)
			if gerr != nil {
				return gerr
			}
			intents = sh.scratch
		}
		sr := root.ForkN("synth", uint64(c.ID)*1024+uint64(day))
		for i := range intents {
			// cfg.Trace.Start is nil-safe: with tracing off (or the
			// flow unsampled) fl is nil and every downstream recording
			// call is a pointer check.
			fl := cfg.Trace.Start(c.ID, day, i)
			if ferr := syn.flow(&intents[i], sr, fl); ferr != nil {
				return fmt.Errorf("netsim: customer %d day %d flow %d: %w", c.ID, day, i, ferr)
			}
		}
		out.intents += len(intents)
		mFlows.Add(int64(len(intents)))
	}
	return nil
}

// Run executes the simulation to completion (no cancellation).
func Run(cfg Config) (*Output, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the simulation under ctx. Cancellation during pass
// B stops every worker at its next customer boundary and returns the
// flows the workers had finished, with Stats.Interrupted set (manifest
// status "partial"); cancellation during pass A — before any flow exists
// — fails the run outright.
func RunContext(ctx context.Context, cfg Config) (*Output, error) {
	return run(ctx, cfg, intentCacheBytes)
}

// run is RunContext with the intent cache's byte budget as a parameter
// (negative caches nothing), so the tests can drive the cache to spill.
func run(ctx context.Context, cfg Config, cacheBytes int64) (*Output, error) {
	cfg = cfg.withDefaults()
	mod, err := newModels(cfg.Constellation, cfg.Seed, cfg.MAC)
	if err != nil {
		return nil, err
	}
	// A moving constellation contributes its own deterministic fault
	// timeline: the disruptive subset of satellite handovers, merged with
	// whatever schedule the caller injected. The merged schedule is what
	// the synthesizers consult and what the manifest records.
	sched := cfg.Faults
	if !mod.con.Static() {
		sched = faults.WithLEOHandovers(sched, cfg.Days, cfg.Seed)
	}
	faults.RecordActive(sched)
	startA := time.Now()
	mCustomersTotal.Set(float64(cfg.Customers))

	dep, err := newDeployment(cfg)
	if err != nil {
		return nil, err
	}
	customers, root := dep.customers, dep.root
	workers := dep.workers(cfg.Parallelism)
	mWorkers.Set(float64(workers))

	// --- Pass A: offered load per beam-hour, sharded by worker ----------
	// The whole of pass A — worker fan-out plus the beam reduce — runs as
	// one labeled stage: every CPU sample it takes carries stage=<pass A>
	// (plus worker=N inside the fan-out), and the stage's allocation delta
	// feeds the manifest allocs block.
	var shards []passAShard
	allocA := prof.Stage(ctx, prof.StagePassA, func(sctx context.Context) {
		shards = dep.dimension(sctx, cfg, workers, false, cacheBytes)
	})
	if err := ctx.Err(); err != nil {
		// No flow exists yet; there is nothing to salvage.
		return nil, fmt.Errorf("netsim: interrupted during workload generation: %w", err)
	}

	passA := time.Since(startA)
	mPassA.SetDuration(passA)

	if testHookAfterPassA != nil {
		testHookAfterPassA()
	}

	// --- MAC grid pre-build ----------------------------------------------
	// Build every (util, FER) access-delay cell in parallel before fanning
	// out, so no pass-B worker ever stalls on a lazy micro-simulation (the
	// first rainy flow used to build its FER cell under a global lock).
	// Cells live in a process-wide cache, so repeated runs skip this.
	startPre := time.Now()
	allocPre := prof.Stage(ctx, prof.StageMACPrebuild, func(context.Context) {
		mod.mac.Prebuild(workers)
	})
	prebuild := time.Since(startPre)
	mMACPrebuild.SetDuration(prebuild)

	// --- Pass B: synthesize the vantage-point stream ------------------
	startB := time.Now()
	// Each worker owns a private tracker and synthesizes only its own
	// customers (the pass-A stride partition), so every tracker sees a
	// fully deterministic single-producer event order; flows never span
	// workers because 5-tuples are per-customer. Each worker sorts each
	// chunk of its logs into the canonical total order, and every
	// worker's sorted chunks are k-way merged afterwards, making the
	// output independent of scheduling and worker count. A customer
	// whose synthesis panics is dropped with a recovered error; a
	// cancelled context stops every worker at its next customer boundary
	// — either way the remaining customers' logs are flushed, sorted, and
	// merged as usual.
	var interrupted atomic.Bool
	var wg sync.WaitGroup
	outs := make([]workerOut, workers)
	allocB := prof.Stage(ctx, prof.StagePassB, func(sctx context.Context) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				prof.Worker(sctx, w, func(wctx context.Context) {
					out := &outs[w]
					tracker := tstat.NewTracker(tstat.Config{
						Anonymizer: dep.anon,
						OnFlow:     out.flowLog.add,
						OnDNS:      out.dnsLog.add,
					})
					syn := newSynthesizer(cfg, dep, mod, sched, tracker)
					sh := &shards[w]
					local := 0
					for ci := w; ci < len(customers); ci += workers {
						if wctx.Err() != nil {
							interrupted.Store(true)
							break
						}
						c := customers[ci]
						if err := synthCustomer(syn, sh, root, cfg, c, local, out); err != nil {
							mWorkerRecoveries.Inc()
							out.errs = append(out.errs, err.Error())
						} else {
							out.done++
							mCustomersDone.Inc()
						}
						// 5-tuples are per customer: no later event can
						// reach this customer's flows, so retire them and
						// hand its port map to the next customer.
						tracker.Flush()
						syn.retirePorts(c.ID)
						local++
					}
					// The canonical sort is tstat work, not synthesis —
					// relabel it (keeping worker=N) so profiles separate it
					// from flow synthesis.
					prof.Do(wctx, prof.StageTstat, func() {
						for _, c := range out.flowLog.chunks {
							tstat.SortFlows(c)
						}
						for _, c := range out.dnsLog.chunks {
							tstat.SortDNS(c)
						}
					})
				})
			}(w)
		}
		wg.Wait()
	})
	passB := time.Since(startB)
	mPassB.SetDuration(passB)
	mPassBAllocBytes.Add(int64(allocB.Bytes))
	mPassBAllocs.Add(int64(allocB.Objects))
	stats := RunStats{
		PassA: passA, PassB: passB, MACPrebuild: prebuild,
		Workers: workers, WorkerFlows: make([]int, workers),
		Interrupted: interrupted.Load(),
	}
	for w := range outs {
		stats.WorkerFlows[w] = outs[w].intents
		stats.IntentCacheHits += shards[w].hits
		stats.IntentCacheSpills += shards[w].spills
		stats.Errors = append(stats.Errors, shards[w].errs...)
		stats.Errors = append(stats.Errors, outs[w].errs...)
		stats.CustomersDone += outs[w].done
		if secs := passB.Seconds(); secs > 0 {
			mWorkerRate.Observe(float64(outs[w].intents) / secs)
		}
	}
	sort.Strings(stats.Errors)
	if stats.Status() != StatusOK {
		mCustomersSalvaged.Add(int64(stats.CustomersDone))
	}
	mIntentCacheHits.Add(int64(stats.IntentCacheHits))
	mIntentCacheSpills.Add(int64(stats.IntentCacheSpills))

	startMerge := time.Now()
	var flowRuns [][]tstat.FlowRecord
	var dnsRuns [][]tstat.DNSRecord
	for w := range outs {
		flowRuns = append(flowRuns, outs[w].flowLog.chunks...)
		dnsRuns = append(dnsRuns, outs[w].dnsLog.chunks...)
	}
	var flows []tstat.FlowRecord
	var dns []tstat.DNSRecord
	allocMerge := prof.Stage(ctx, prof.StageMerge, func(context.Context) {
		flows = tstat.MergeFlows(flowRuns)
		dns = tstat.MergeDNS(dnsRuns)
	})
	stats.Merge = time.Since(startMerge)
	mMerge.SetDuration(stats.Merge)
	stats.StageAllocs = map[string]obs.AllocInfo{
		"pass_a":       allocA,
		"mac_prebuild": allocPre,
		"pass_b":       allocB,
		"merge":        allocMerge,
	}

	out := &Output{
		Flows:           flows,
		DNS:             dns,
		Meta:            make(map[netip.Addr]CustomerMeta, len(customers)),
		CountryPrefixes: dep.prefixes,
		Epoch:           time.Date(2022, time.February, 7, 0, 0, 0, 0, time.UTC),
		Beams:           beamStats(dep.loads, cfg.Days*24),
		Faults:          sched,
		Stats:           stats,
		cfg:             cfg,
		dep:             dep,
		mod:             mod,
	}
	out.cfg.Trace = nil
	for _, c := range customers {
		out.Meta[dep.anon.MustAnonymize(c.Addr)] = CustomerMeta{
			Country: c.Country.Code, Beam: c.Beam, Type: c.Type,
			PlanMbs: c.Plan.DownMbps, Multiplex: c.Multiplex, Resolver: c.Resolver.ID,
		}
	}
	return out, nil
}
