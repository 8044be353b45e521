// Package mac models the satellite data-link layer of the SatCom access
// network (§2.1 of the paper): a slotted-Aloha reservation channel for a
// CPE's first transmission, a TDMA frame scheduler that shares the uplink
// among active CPEs, and an ARQ loop that repairs the residual frame errors
// left by FEC (package phy).
//
// The package runs an honest slot-level discrete-event micro-simulation
// (package simtime) for a grid of (utilization, frame error rate) operating
// points and distills each run into an empirical access-delay distribution.
// The macro flow simulator then samples those distributions — this is what
// makes the satellite-segment RTT distributions of Figure 8 emerge from the
// MAC mechanism rather than from played-back numbers.
//
// Two standard stabilizations keep the contention channel from collapsing,
// as deployed DVB-RCS-style systems do: contenders transmit with
// probability min(1, R/n̂) where n̂ estimates the contender population
// (stabilized Aloha), and a CPE holds its reservation for a configurable
// number of frames after its queue drains so steady flows do not re-contend
// for every burst.
package mac

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/obs"
	"satwatch/internal/simtime"
	"satwatch/internal/trace"
)

// Exported metrics (see OBSERVABILITY.md).
var (
	mUplinkDelay = obs.NewHistogram("mac_uplink_access_delay_seconds",
		"Sampled uplink MAC access delay (contention + reservation + ARQ).", "seconds", obs.LatencyBuckets())
	mDownlinkDelay = obs.NewHistogram("mac_downlink_queue_delay_seconds",
		"Sampled downlink frame-alignment plus queueing delay.", "seconds", obs.LatencyBuckets())
	mBeamUtil = obs.NewHistogram("mac_beam_utilization_ratio",
		"Beam utilization observed at each uplink sample (flow-weighted).", "ratio", obs.RatioBuckets())
	mCellBuilds = obs.NewCounter("mac_cells_built_total",
		"Access-delay grid cells built by the slot-level micro-simulation.", "")
	mCellBuildTime = obs.NewTimer("mac_cell_build_seconds",
		"Wall time spent building access-delay grid cells (micro-simulation runs).")
)

// Params are the data-link dimensioning knobs.
type Params struct {
	// FrameDuration is the TDMA frame period.
	FrameDuration time.Duration
	// SlotsPerFrame is the number of traffic slots shared each frame.
	SlotsPerFrame int
	// ReservationSlots is the number of slotted-Aloha contention slots
	// per frame used by CPEs requesting capacity for a new burst.
	ReservationSlots int
	// NumCPE is the number of active terminals sharing the beam in the
	// micro-simulation.
	NumCPE int
	// HopRTT is the terminal↔scheduler control-loop round trip: a
	// reservation grant or an ARQ NAK needs a full bounce off the
	// satellite before the CPE learns about it.
	HopRTT time.Duration
	// HoldFrames is how many frames a CPE keeps its reservation open
	// after its transmit queue drains, avoiding re-contention for
	// closely spaced bursts.
	HoldFrames int
	// MaxARQRetries bounds ARQ recovery attempts per frame.
	MaxARQRetries int
	// SimFrames is the number of TDMA frames each micro-simulation runs.
	SimFrames int
	// Seed makes table construction reproducible.
	Seed uint64
}

// DefaultParams returns the dimensioning matched to the default GEO
// constellation backend (geo.Constellation "geo"): 45 ms superframes, 64
// traffic slots, 8 contention slots, a ~260 ms control loop (HopRTT — one
// bounce off the serving orbit plus processing; at GEO altitude that is
// the dominant term), and a ~0.9 s reservation hold. The mechanism itself
// — contention, reservation, ARQ over a shared beam — is orbit-agnostic;
// only the control-loop and frame timing follow the constellation.
func DefaultParams() Params {
	return Params{
		FrameDuration:    45 * time.Millisecond,
		SlotsPerFrame:    64,
		ReservationSlots: 8,
		NumCPE:           48,
		HopRTT:           260 * time.Millisecond,
		HoldFrames:       20,
		MaxARQRetries:    6,
		SimFrames:        2400,
		Seed:             0x5a7c0,
	}
}

// LEOParams returns the dimensioning matched to the LEO constellation
// backend: the same slot structure over much shorter frames (5 ms) and a
// ~10 ms control loop — a reservation grant or ARQ NAK bounces off a
// 550 km shell instead of a 35 786 km one — with a longer reservation
// hold (in frames) so steady flows still avoid re-contention. The
// simulator selects these automatically for `-constellation leo` when the
// config does not override the MAC explicitly.
func LEOParams() Params {
	p := DefaultParams()
	p.FrameDuration = 5 * time.Millisecond
	p.HopRTT = 10 * time.Millisecond
	p.HoldFrames = 40
	return p
}

// WithDefaults fills every zero field from DefaultParams, so a caller
// overriding only some knobs (say, FrameDuration) still gets a usable
// dimensioning instead of divide-by-zero slot math. Set MaxARQRetries
// negative to disable ARQ; zero means "default".
func (p Params) WithDefaults() Params {
	d := DefaultParams()
	if p.FrameDuration <= 0 {
		p.FrameDuration = d.FrameDuration
	}
	if p.SlotsPerFrame <= 0 {
		p.SlotsPerFrame = d.SlotsPerFrame
	}
	if p.ReservationSlots <= 0 {
		p.ReservationSlots = d.ReservationSlots
	}
	if p.NumCPE <= 0 {
		p.NumCPE = d.NumCPE
	}
	if p.HopRTT <= 0 {
		p.HopRTT = d.HopRTT
	}
	if p.HoldFrames <= 0 {
		p.HoldFrames = d.HoldFrames
	}
	if p.SimFrames <= 0 {
		p.SimFrames = d.SimFrames
	}
	if p.MaxARQRetries == 0 {
		p.MaxARQRetries = d.MaxARQRetries
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// quantile levels retained from each micro-simulation run.
var tableLevels = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

// cpe is one terminal's reservation state in the micro-simulation.
type cpe struct {
	backlog    int  // queued slot-requests
	reserved   bool // holds an active capacity reservation
	contending bool // waiting to win a contention slot
	grant      bool // reservation grant in flight (control loop)
	holdUntil  int  // frame number the reservation is held through
}

// job is one slot's worth of payload waiting for a TDMA grant.
type job struct {
	owner   int32 // index of the CPE it queued at
	arrived simtime.Stamp
}

// scratch is the working memory of a micro-simulation run that grows with
// the offered load. A Prebuild worker hands the same scratch to every cell
// it builds, so the two buffers are sized once per worker, by its first
// (heaviest) cell.
type scratch struct {
	delays []time.Duration
	queue  []job // FIFO across CPEs
}

// simulate runs the slot-level micro-simulation at the given offered
// utilization (fraction of SlotsPerFrame demanded on average) and residual
// frame error rate over caller-owned scratch, and returns the empirical
// distribution of the uplink access delay: the time from a transmission
// request arriving at a CPE to its successful delivery to the scheduler,
// excluding propagation of the data itself (the caller adds slant-path
// delays). The tables it produces are pinned (TestCellTablesGolden), so
// the order of RNG draws and of same-instant events is part of its
// contract: per arrival IntN(NumCPE) then Exponential; per frame,
// contenders in CPE-index order draw Bool(pTx) then IntN(ReservationSlots),
// and granted jobs in FIFO order run the Bool(fer) ARQ loop.
func simulate(p Params, util, fer float64, seed uint64, sc *scratch) *dist.Empirical {
	p = p.WithDefaults()
	if util < 0.01 {
		util = 0.01
	}
	if util > 0.99 {
		util = 0.99
	}
	r := dist.NewRand(seed)
	var sched simtime.Scheduler

	cpes := make([]cpe, p.NumCPE)
	// One pre-bound event per CPE: the reservation grant arriving.
	grantArrives := make([]simtime.Event, p.NumCPE)
	for i := range grantArrives {
		c := &cpes[i]
		grantArrives[i] = func(simtime.Stamp) {
			c.grant = false
			c.reserved = true
		}
	}

	// Each "request" is one slot's worth of payload. Poisson arrivals at
	// aggregate rate util*SlotsPerFrame per frame, spread over the CPEs.
	perFrame := util * float64(p.SlotsPerFrame)
	meanInterarrival := float64(p.FrameDuration) / perFrame
	warmup := simtime.Stamp(p.SimFrames/10) * simtime.Stamp(p.FrameDuration)

	queue := sc.queue[:0]
	delays := sc.delays[:0]
	if want := int(perFrame * float64(p.SimFrames)); cap(delays) < want {
		delays = make([]time.Duration, 0, want)
	}

	var arrive simtime.Event
	arrive = func(now simtime.Stamp) {
		i := r.IntN(len(cpes))
		c := &cpes[i]
		if !c.reserved && !c.contending && !c.grant {
			c.contending = true
		}
		c.backlog++
		queue = append(queue, job{owner: int32(i), arrived: now})
		sched.After(time.Duration(r.Exponential(meanInterarrival)), arrive)
	}
	sched.After(time.Duration(r.Exponential(meanInterarrival)), arrive)

	// Per-frame contention state, reused: who contends, and per reservation
	// slot how many picked it and who picked it first.
	contenders := make([]int32, 0, p.NumCPE)
	slotCount := make([]int32, p.ReservationSlots)
	slotFirst := make([]int32, p.ReservationSlots)
	slotTime := simtime.Stamp(p.FrameDuration) / simtime.Stamp(p.SlotsPerFrame)

	frameNo := 0
	var frame simtime.Event
	frame = func(now simtime.Stamp) {
		frameNo++
		if frameNo > p.SimFrames {
			return
		}
		// Stabilized slotted-Aloha: contenders transmit with probability
		// R/n̂ and pick a random reservation slot; sole occupants win.
		contenders = contenders[:0]
		for i := range cpes {
			if cpes[i].contending {
				contenders = append(contenders, int32(i))
			}
		}
		if n := len(contenders); n > 0 {
			pTx := 1.0
			if n > p.ReservationSlots {
				pTx = float64(p.ReservationSlots) / float64(n)
			}
			clear(slotCount)
			for _, i := range contenders {
				if r.Bool(pTx) {
					s := r.IntN(p.ReservationSlots)
					if slotCount[s]++; slotCount[s] == 1 {
						slotFirst[s] = i
					}
				}
			}
			// Winners in slot order, so the grants' scheduling order is a
			// function of the draws alone.
			for s, picked := range slotCount {
				if picked == 1 {
					winner := slotFirst[s]
					cpes[winner].contending = false
					cpes[winner].grant = true
					// The grant arrives one control loop later.
					sched.After(p.HopRTT, grantArrives[winner])
				}
				// Collisions retry next frame (contending stays set).
			}
		}
		// TDMA grants: serve up to SlotsPerFrame queued jobs whose owner
		// holds an active reservation, in FIFO order across CPEs.
		served := 0
		rest := queue[:0]
		for _, j := range queue {
			c := &cpes[j.owner]
			if served == p.SlotsPerFrame || !c.reserved {
				rest = append(rest, j)
				continue
			}
			served++
			c.backlog--
			c.holdUntil = frameNo + p.HoldFrames
			// The transmission errors with probability fer; each ARQ
			// recovery costs a control loop plus the retx frame.
			done := now + slotTime
			for retries := 0; retries < p.MaxARQRetries && r.Bool(fer); retries++ {
				done += simtime.Stamp(p.HopRTT) + simtime.Stamp(p.FrameDuration)
			}
			if j.arrived >= warmup {
				delays = append(delays, time.Duration(done-j.arrived))
			}
		}
		queue = rest
		// Close reservations whose hold expired with an empty queue.
		for i := range cpes {
			c := &cpes[i]
			if c.reserved && c.backlog == 0 && frameNo > c.holdUntil {
				c.reserved = false
			}
			// A reservation that closed while traffic queued up again
			// must re-contend (arrival saw reserved=true at queue time).
			if !c.reserved && !c.grant && !c.contending && c.backlog > 0 {
				c.contending = true
			}
		}
		sched.After(p.FrameDuration, frame)
	}
	sched.After(p.FrameDuration, frame)

	deadline := simtime.Stamp(p.SimFrames+1) * simtime.Stamp(p.FrameDuration)
	sched.RunUntil(deadline)

	sc.queue, sc.delays = queue, delays
	return distill(delays, p)
}

// distill reduces raw delay samples to an empirical quantile table,
// reordering delays as it reads the table's order statistics.
func distill(delays []time.Duration, p Params) *dist.Empirical {
	if len(delays) == 0 {
		// Pathological (e.g. zero offered load): a flat half-frame.
		half := float64(p.FrameDuration) / 2
		e, _ := dist.NewEmpirical([]float64{0.25, 0.75}, []float64{half, half})
		return e
	}
	ranks := tableRanks(len(delays))
	selectRanks(delays, 0, ranks)
	values := make([]float64, len(tableLevels))
	for i, k := range ranks {
		values[i] = float64(delays[k])
	}
	// Enforce monotonicity against duplicate quantile collapses.
	for i := 1; i < len(values); i++ {
		if values[i] < values[i-1] {
			values[i] = values[i-1]
		}
	}
	e, err := dist.NewEmpirical(tableLevels, values)
	if err != nil {
		panic("mac: distill produced invalid empirical: " + err.Error())
	}
	return e
}

// tableRanks are the order statistics the table keeps of n sorted samples.
func tableRanks(n int) []int {
	ranks := make([]int, len(tableLevels))
	for i, q := range tableLevels {
		ranks[i] = int(q * float64(n-1))
	}
	return ranks
}

// selectRanks reorders v so that every wanted rank holds the value a full
// sort would put there, without sorting the rest: a quickselect that
// descends only into partitions containing a wanted rank. v is the window
// starting at index off of the slice the ranks (ascending) index into, and
// every rank falls inside it. The partition is three-way, so equal delays,
// however many, end a branch instead of degrading it.
func selectRanks(v []time.Duration, off int, ranks []int) {
	if len(ranks) == 0 {
		return
	}
	if len(v) <= 24 {
		slices.Sort(v)
		return
	}
	a, b, c := v[0], v[len(v)/2], v[len(v)-1]
	pivot := max(min(a, b), min(max(a, b), c)) // median of three
	// Invariant: v[:lt] < pivot, v[lt:i] == pivot, v[gt:] > pivot.
	lt, i, gt := 0, 0, len(v)
	for i < gt {
		switch x := v[i]; {
		case x < pivot:
			v[i], v[lt] = v[lt], x
			lt++
			i++
		case x > pivot:
			gt--
			v[i], v[gt] = v[gt], x
		default:
			i++
		}
	}
	below := sort.SearchInts(ranks, off+lt) // ranks[:below] fall in v[:lt]
	above := sort.SearchInts(ranks, off+gt) // ranks[above:] fall in v[gt:]
	selectRanks(v[:lt], off, ranks[:below])
	selectRanks(v[gt:], off+gt, ranks[above:])
}

// Model interpolates access-delay distributions over a precomputed
// (utilization, FER) grid. Grid cells are pure functions of the
// dimensioning, so they live in a process-wide cache shared by every model
// with identical Params: a second Run (or a second Model) rebuilds
// nothing. Missing cells are built lazily on first touch — each cell
// independently, so two samplers needing different cells never serialize
// on each other — or all at once with Prebuild. Safe for concurrent use.
type Model struct {
	p     Params
	utils []float64
	fers  []float64

	// cells is the per-model fast path: a flat [len(utils)*len(fers)]
	// array of pointers resolved from the shared cache on first touch.
	cells []atomic.Pointer[dist.Empirical]
}

// cellKey identifies one grid cell in the process-wide cache by its full
// dimensioning and operating point.
type cellKey struct {
	p      Params
	ui, fi int
}

// cellEntry guards one shared cell: the first goroutine to need it builds
// it inside the once; concurrent builders of *other* cells proceed.
type cellEntry struct {
	once sync.Once
	e    *dist.Empirical
}

var sharedCells sync.Map // cellKey → *cellEntry

// NewModel builds an access-delay model over the standard grid. Zero
// fields of p are filled from DefaultParams (see Params.WithDefaults).
func NewModel(p Params) *Model {
	m := &Model{
		p:     p.WithDefaults(),
		utils: []float64{0.05, 0.20, 0.35, 0.50, 0.65, 0.78, 0.88, 0.94, 0.98},
		fers:  []float64{1e-5, 1e-3, 6e-3, 2.5e-2, 0.12},
	}
	m.cells = make([]atomic.Pointer[dist.Empirical], len(m.utils)*len(m.fers))
	return m
}

// Params returns the dimensioning the model was built with.
func (m *Model) Params() Params { return m.p }

// GridSize returns the number of (utilization, FER) cells in the grid.
func (m *Model) GridSize() int { return len(m.utils) * len(m.fers) }

// Prebuild constructs every grid cell not yet in the process-wide cache,
// using up to `workers` parallel builders (<=0 → GOMAXPROCS). Cells are
// deterministic functions of (Params, util, fer) alone, so build order and
// parallelism never affect sampled values; prebuilding only moves the
// micro-simulation cost off the sampling hot path, where a lazy build
// would stall every sampler needing that cell. A cell's cost grows with
// its arrivals, so cells are handed out heaviest (highest utilization)
// first and no worker is left finishing a big one alone.
func (m *Model) Prebuild(workers int) {
	n := m.GridSize()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for {
				i := n - int(next.Add(1))
				if i < 0 {
					return
				}
				m.cellWith(i/len(m.fers), i%len(m.fers), &sc)
			}
		}()
	}
	wg.Wait()
}

func nearestIdx(grid []float64, x float64) int {
	best, bd := 0, -1.0
	for i, g := range grid {
		d := g - x
		if d < 0 {
			d = -d
		}
		if bd < 0 || d < bd {
			best, bd = i, d
		}
	}
	return best
}

func (m *Model) cell(ui, fi int) *dist.Empirical { return m.cellWith(ui, fi, nil) }

// cellWith resolves one cell, building it over sc if nobody has yet (nil
// sc: a lazy build, which allocates its own scratch).
func (m *Model) cellWith(ui, fi int, sc *scratch) *dist.Empirical {
	idx := ui*len(m.fers) + fi
	if c := m.cells[idx].Load(); c != nil {
		return c
	}
	v, _ := sharedCells.LoadOrStore(cellKey{p: m.p, ui: ui, fi: fi}, &cellEntry{})
	ce := v.(*cellEntry)
	ce.once.Do(func() {
		seed := m.p.Seed ^ uint64(ui*31+fi+1)*0x9e3779b97f4a7c15
		if sc == nil {
			sc = &scratch{}
		}
		stop := mCellBuildTime.Start()
		ce.e = simulate(m.p, m.utils[ui], m.fers[fi], seed, sc)
		stop()
		mCellBuilds.Inc()
	})
	m.cells[idx].Store(ce.e)
	return ce.e
}

// SampleUplink draws one uplink access delay at the given beam utilization
// and frame error rate.
func (m *Model) SampleUplink(util, fer float64, r *dist.Rand) time.Duration {
	return m.SampleUplinkTraced(util, fer, r, nil)
}

// SampleUplinkTraced is SampleUplink recording a mac.uplink_access span
// with the operating-point inputs on fl (nil fl records nothing).
func (m *Model) SampleUplinkTraced(util, fer float64, r *dist.Rand, fl *trace.Flow) time.Duration {
	ui := nearestIdx(m.utils, util)
	fi := nearestIdx(m.fers, fer)
	d := time.Duration(m.cell(ui, fi).Sample(r))
	mUplinkDelay.ObserveDuration(d)
	mBeamUtil.Observe(util)
	if fl != nil {
		fl.Span(trace.SpanMACUplink, trace.SegSatellite, d, trace.Attrs{
			"util": util, "fer": fer, "grid_util": m.utils[ui], "grid_fer": m.fers[fi],
		})
	}
	return d
}

// SampleDownlinkTraced draws one downlink delay, recording a
// mac.downlink_queue span with the operating-point inputs on fl (nil fl
// records nothing). The downlink is a broadcast channel with no
// contention: delay is frame alignment plus queueing that grows with
// utilization, plus ARQ recovery on frame errors.
func (m *Model) SampleDownlinkTraced(util, fer float64, r *dist.Rand, fl *trace.Flow) time.Duration {
	if util > 0.98 {
		util = 0.98
	}
	if util < 0 {
		util = 0
	}
	frame := float64(m.p.FrameDuration)
	align := r.Float64() * frame / 2
	// M/D/1-style waiting time in units of frame service time.
	wait := frame * util / (2 * (1 - util))
	d := align + wait
	for retries := 0; retries < m.p.MaxARQRetries && r.Bool(fer); retries++ {
		d += float64(m.p.HopRTT) + frame
	}
	mDownlinkDelay.ObserveDuration(time.Duration(d))
	if fl != nil {
		fl.Span(trace.SpanMACDownlink, trace.SegSatellite, time.Duration(d), trace.Attrs{
			"util": util, "fer": fer,
		})
	}
	return time.Duration(d)
}

// QuantileUplink reports the q-quantile of the uplink access delay at an
// operating point, for tests and for Figure 8b's per-beam medians.
func (m *Model) QuantileUplink(util, fer, q float64) time.Duration {
	ui := nearestIdx(m.utils, util)
	fi := nearestIdx(m.fers, fer)
	return time.Duration(m.cell(ui, fi).Quantile(q))
}
