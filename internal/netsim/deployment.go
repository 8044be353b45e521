package netsim

// Both drivers — the batch RunContext and the always-on LiveSim — build
// the simulated network through this file, in two halves: the deployment
// (fixed by population size and seed) and the models (fixed by the
// constellation; the only half a live scenario swap replaces).

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/cryptopan"
	"satwatch/internal/dist"
	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/mac"
	"satwatch/internal/phy"
	"satwatch/internal/prof"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// deployment is the orbit-independent half: the customers, the
// anonymization key, the anonymized-prefix → country join (§3.1), and the
// beam-hour load table capacity and PEP resources are dimensioned from.
type deployment struct {
	root      *dist.Rand
	customers []*workload.Customer
	anon      *cryptopan.Anonymizer
	prefixes  map[netip.Prefix]geo.CountryCode
	loads     []*beamLoad // indexed by beam ID; filled by dimension
}

func newDeployment(cfg Config) (*deployment, error) {
	root := dist.NewRand(cfg.Seed)
	customers, err := workload.BuildPopulation(cfg.Customers, root.Fork("population"))
	if err != nil {
		return nil, err
	}
	anonKey := make([]byte, cryptopan.KeySize)
	kr := root.Fork("anon-key")
	for i := range anonKey {
		anonKey[i] = byte(kr.Uint64())
	}
	anon, err := cryptopan.New(anonKey)
	if err != nil {
		return nil, err
	}
	prefixes := map[netip.Prefix]geo.CountryCode{}
	for _, p := range workload.Profiles() {
		subnet, ok := workload.SubnetFor(p.Country.Code)
		if !ok {
			return nil, fmt.Errorf("netsim: no subnet for %s", p.Country.Code)
		}
		anonBase := anon.MustAnonymize(subnet.Addr())
		anonPrefix, err := anonBase.Prefix(subnet.Bits())
		if err != nil {
			return nil, err
		}
		prefixes[anonPrefix] = p.Country.Code
	}
	return &deployment{root: root, customers: customers, anon: anon, prefixes: prefixes}, nil
}

// CountryOf resolves an anonymized customer address to its country through
// a deployment's prefix join (§2.3: Crypto-PAn "preserves the subnet
// structure"; §3.1: the mapping the operator provides). prefixes is
// Output.CountryPrefixes or LiveSim.CountryPrefixes: one entry per country,
// scanned linearly. The prefixes must not overlap (readPrefixes rejects a
// row that does), or the answer would depend on map order.
func CountryOf(prefixes map[netip.Prefix]geo.CountryCode, addr netip.Addr) (geo.CountryCode, bool) {
	for p, code := range prefixes {
		if p.Contains(addr) {
			return code, true
		}
	}
	return "", false
}

// workers resolves Config.Parallelism against GOMAXPROCS and the
// population size.
func (d *deployment) workers(parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(d.customers) {
		parallelism = len(d.customers)
	}
	return parallelism
}

// passAShard is one worker's private pass-A state: integer load
// accumulators per (beam, hour) — integer sums reduce exactly in any
// order, which is what keeps the dimensioning bit-identical at any worker
// count — plus the intents it generated, cached for pass B when the byte
// budget allows.
type passAShard struct {
	bytes  [][]int64 // [beam ID][hour] offered bytes
	setups [][]int64 // [beam ID][hour] connection setups
	// cache holds this worker's generated intents per local
	// (customer, day) slot; nil slots were spilled by the budget and are
	// regenerated deterministically in pass B.
	cache [][]workload.FlowIntent
	// scratch is the worker's generation buffer: pass A generates each
	// customer-day into it and caches an exact-size copy, and pass B
	// regenerates spilled days into it.
	scratch []workload.FlowIntent
	hits    int
	spills  int
	// errs collects recovered pass-A panics; failed marks the local
	// slots they poisoned so pass B never regenerates them (which would
	// just re-trigger the panic).
	errs   []string
	failed map[int]bool
}

// generateDaySafe is AppendDay with a panic fence: one bad customer-day
// becomes an error carrying its coordinates instead of a dead worker.
func generateDaySafe(dst []workload.FlowIntent, c *workload.Customer, day int, r *dist.Rand) (intents []workload.FlowIntent, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("netsim: generate customer %d day %d: panic: %v", c.ID, day, p)
		}
	}()
	return workload.AppendDay(dst, c, day, r), nil
}

// dimension is pass A: it generates every customer-day of cfg.Days on
// `workers` goroutines, aggregates offered load per (beam, hour), and
// fills d.loads with each beam dimensioned so its busiest hour hits the
// operator's target utilization (and the PEP so its busiest hour hits
// 1/PEPFactor). wrap makes the resulting profile periodic (see beamLoad).
//
// Customers stripe across workers (ci ≡ w mod workers) — the partition
// pass B uses, so each returned shard's intent cache feeds that worker's
// pass-B loop; the shards share cacheBytes, and a customer-day the budget
// no longer covers is left for pass B to regenerate. Each (customer, day)
// has its own forked random stream, so generation order across workers
// cannot perturb the workload. A cancelled ctx stops the workers at their
// next customer and leaves d.loads unset.
func (d *deployment) dimension(ctx context.Context, cfg Config, workers int, wrap bool, cacheBytes int64) []passAShard {
	hours := cfg.Days * 24
	beams := geo.Beams()
	maxBeamID := 0
	for _, b := range beams {
		if b.ID > maxBeamID {
			maxBeamID = b.ID
		}
	}

	var cacheFree atomic.Int64
	cacheFree.Store(cacheBytes)

	customers := d.customers
	shards := make([]passAShard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prof.Worker(ctx, w, func(wctx context.Context) {
				sh := &shards[w]
				sh.bytes = make([][]int64, maxBeamID+1)
				sh.setups = make([][]int64, maxBeamID+1)
				for _, b := range beams {
					sh.bytes[b.ID] = make([]int64, hours)
					sh.setups[b.ID] = make([]int64, hours)
				}
				nLocal := (len(customers) - w + workers - 1) / workers
				sh.cache = make([][]workload.FlowIntent, nLocal*cfg.Days)
				local := 0
				for ci := w; ci < len(customers); ci += workers {
					if wctx.Err() != nil {
						return
					}
					c := customers[ci]
					for day := 0; day < cfg.Days; day++ {
						r := d.root.ForkN("day", uint64(c.ID)*1024+uint64(day))
						intents, gerr := generateDaySafe(sh.scratch[:0], c, day, r)
						sh.scratch = intents
						if gerr != nil {
							mWorkerRecoveries.Inc()
							sh.errs = append(sh.errs, gerr.Error())
							if sh.failed == nil {
								sh.failed = map[int]bool{}
							}
							sh.failed[local*cfg.Days+day] = true
							continue
						}
						bb, sb := sh.bytes[c.Beam], sh.setups[c.Beam]
						var size int64
						for i := range intents {
							fi := &intents[i]
							if h := hourOf(fi.Start); h >= 0 && h < hours {
								bb[h] += fi.Down + fi.Up
								sb[h]++
							}
							size += int64(fi.MemBytes())
						}
						// Admit an exact-size copy into the intent cache
						// while the budget lasts; spilled slots are
						// regenerated in pass B.
						if cacheFree.Add(-size) >= 0 {
							cached := make([]workload.FlowIntent, len(intents))
							copy(cached, intents)
							sh.cache[local*cfg.Days+day] = cached
						} else {
							cacheFree.Add(size)
							sh.spills++
						}
					}
					local++
				}
			})
		}(w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return shards
	}

	// Reduce the integer shards by beam ID and dimension each beam.
	loads := make([]*beamLoad, maxBeamID+1)
	for _, b := range beams {
		bl := &beamLoad{beam: b, bytesHour: make([]float64, hours), setupsHour: make([]float64, hours), wrap: wrap}
		var peakBytes, peakSetups int64
		for h := 0; h < hours; h++ {
			var byteSum, setupSum int64
			for w := range shards {
				byteSum += shards[w].bytes[b.ID][h]
				setupSum += shards[w].setups[b.ID][h]
			}
			bl.bytesHour[h] = float64(byteSum)
			bl.setupsHour[h] = float64(setupSum)
			if byteSum > peakBytes {
				peakBytes = byteSum
			}
			if setupSum > peakSetups {
				peakSetups = setupSum
			}
		}
		offered := float64(peakBytes) / 3600
		if offered <= 0 {
			offered = 1
		}
		bl.capacity = offered / b.TargetPeakUtil
		bl.pepPeak = float64(peakSetups) / 3600
		if bl.pepPeak <= 0 {
			bl.pepPeak = 1.0 / 3600
		}
		loads[b.ID] = bl
	}
	d.loads = loads
	return shards
}

// models is the orbit-dependent half. channels and propRTT are
// precomputed per country for a static constellation and left empty for a
// moving one, where samplePath evaluates both at the flow's start time.
type models struct {
	con      geo.Constellation
	mac      *mac.Model
	channels map[geo.CountryCode]phy.Channel
	propRTT  map[geo.CountryCode]time.Duration
}

// matchedMAC resolves the data-link dimensioning for a constellation: an
// untouched MAC follows the orbit (the control loop bounces off a 550 km
// shell, not a geostationary one), anything the caller set is kept, and
// remaining zero fields take mac.DefaultParams.
func matchedMAC(constellation string, override mac.Params) mac.Params {
	if constellation == "leo" && override == (mac.Params{}) {
		override = mac.LEOParams()
	}
	return override.WithDefaults()
}

// newModels assembles the models for a constellation; macOverride is the
// caller's Config.MAC. Pre-building the MAC grid is left to the driver,
// which knows when and how wide to do it.
func newModels(constellation string, seed uint64, macOverride mac.Params) (*models, error) {
	con, err := geo.ConstellationByName(constellation, seed)
	if err != nil {
		return nil, err
	}
	m := &models{
		con:      con,
		mac:      mac.NewModel(matchedMAC(con.Name(), macOverride)),
		channels: map[geo.CountryCode]phy.Channel{},
		propRTT:  map[geo.CountryCode]time.Duration{},
	}
	if con.Static() {
		for _, country := range geo.Countries() {
			m.channels[country.Code] = phy.ChannelAt(country, con, 0)
			m.propRTT[country.Code] = con.SegmentRTT(country, 0)
		}
	}
	return m, nil
}

// newSynthesizer wires one worker's synthesizer over the two halves.
func newSynthesizer(cfg Config, d *deployment, m *models, sched *faults.Schedule, tracker *tstat.Tracker) *synthesizer {
	return &synthesizer{models: m, cfg: cfg, sched: sched, tracker: tracker, loads: d.loads}
}
