package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"satwatch"
	"satwatch/internal/analytics"
	"satwatch/internal/mac"
	"satwatch/internal/netsim"
	"satwatch/internal/tstat"
)

// Population sizes of the two batch workloads (one simulated day each).
const (
	coldCustomers = 20
	warmCustomers = 200
)

// deploymentSeed fixes the simulated deployment — who the customers are
// and what they do all day — for the batch and live workloads. The
// population is heavy-tailed (one community access point outweighs a
// hundred households), so letting it follow --seed moves the flow count
// of a 20-customer day by 60 % and of a 200-customer day by 30 % from one
// seed to the next, and every per-flow metric with it: no bound could tell
// a regression from a reseed. --seed instead drives what can vary without
// changing the amount of work: the MAC micro-simulation (batch), and the
// link and the order of flow sizes (pepload).
const deploymentSeed = 42

// repReport is one generate→encode→analyze→report op as measured: what a
// cold child process prints and what a warm rep returns in-process.
type repReport struct {
	SetupS        float64            `json:"setup_s"`
	Cost          cost               `json:"cost"`
	Flows         int                `json:"flows"`
	Customers     int                `json:"customers"`
	CustomersDone int                `json:"customers_done"`
	Status        string             `json:"status"`
	Digests       map[string]string  `json:"digests"`
	CellsBuilt    int64              `json:"cells_built"`
	PeakRSSMB     float64            `json:"peak_rss_mb"`
	LogBytes      int64              `json:"log_bytes"`
	Stages        map[string]float64 `json:"stages_s"`
	StageAllocs   map[string]float64 `json:"stage_allocs"`
	WorkerFlows   []int              `json:"worker_flows"`
	CacheHits     int                `json:"cache_hits"`
	CacheSpills   int                `json:"cache_spills"`
	Spans         []Span             `json:"spans,omitempty"`
}

// digester hashes and counts what the TSV writers produce: the op pays the
// encoding, as `satreport -logs` does, without the disk.
type digester struct {
	h hash.Hash
	n int64
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// runOp executes one op at the given parallelism and measures it. The
// output is returned for the checks and micro-measurements that follow a
// timed section. t may be nil.
func runOp(customers int, seed uint64, parallelism int, t *tracer, rep int) (*repReport, *netsim.Output, error) {
	pl := satwatch.New(satwatch.WithCustomers(customers), satwatch.WithDays(1),
		satwatch.WithSeed(deploymentSeed), satwatch.WithParallelism(parallelism))
	cfg := pl.Config()
	// Seed 0 is the stock data-link dimensioning; any other seed redraws
	// the 45 access-delay tables, hence every flow's timeline and digest.
	cfg.MAC.Seed = mac.DefaultParams().Seed + seed
	r := &repReport{
		Customers: customers, Digests: map[string]string{},
		Stages: map[string]float64{}, StageAllocs: map[string]float64{},
	}
	cells := counter("mac_cells_built_total")
	root := t.open(0, rep, "op", "bench")
	// step times one call into a layer; traced runs also take the call's
	// allocation delta (ReadMemStats stops the world, so only then).
	step := func(name, layer, stage string, fn func()) {
		var before usage
		if t != nil {
			before = readUsage()
		}
		start := time.Now()
		fn()
		end := time.Now()
		t.add(root, rep, name, layer, start, end, false)
		r.Stages[stage] += end.Sub(start).Seconds()
		if t != nil {
			r.StageAllocs[stage] += float64(readUsage().since(before).Mallocs)
		}
	}

	var (
		out *netsim.Output
		err error
	)
	begin := readUsage()
	runStart := time.Now()
	out, err = netsim.Run(cfg)
	runEnd := time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("netsim.Run: %w", err)
	}
	if t != nil {
		// The four stages run inside the one public call; rebuild their
		// spans from the program's own stage clocks, back to back from
		// the end (what precedes pass A is population set-up).
		id := t.add(root, rep, "netsim.Run", "netsim", runStart, runEnd, false)
		st := out.Stats
		at := runEnd.Add(-(st.PassA + st.MACPrebuild + st.PassB + st.Merge))
		for _, s := range []struct {
			name, layer string
			d           time.Duration
		}{
			{"netsim.pass_a", "netsim", st.PassA},
			{"mac.Prebuild", "mac", st.MACPrebuild},
			{"netsim.pass_b", "netsim", st.PassB},
			{"netsim.merge", "netsim", st.Merge},
		} {
			t.add(id, rep, s.name, s.layer, at, at.Add(s.d), true)
			at = at.Add(s.d)
		}
	}

	var werr error
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"flows.tsv", func(w io.Writer) error { return tstat.WriteFlows(w, out.Flows) }},
		{"dns.tsv", func(w io.Writer) error { return tstat.WriteDNS(w, out.DNS) }},
		{"meta.tsv", func(w io.Writer) error { return netsim.WriteMeta(w, out.Meta) }},
		{"prefixes.tsv", func(w io.Writer) error { return netsim.WritePrefixes(w, out.CountryPrefixes) }},
	} {
		d := newDigester()
		step("write "+f.name, "tstat", "encode", func() {
			if e := f.write(d); e != nil && werr == nil {
				werr = fmt.Errorf("encode %s: %w", f.name, e)
			}
		})
		r.Digests[f.name] = d.sum()
		r.LogBytes += d.n
	}
	if werr != nil {
		return nil, nil, werr
	}
	var ds *analytics.Dataset
	step("analytics.NewDataset", "analytics", "dataset", func() { ds = analytics.NewDataset(out, 1) })
	var res *satwatch.Results
	step("Pipeline.Analyze", "report", "analyze", func() { res = pl.Analyze(out, ds) })
	step("Results.RenderAll", "report", "render", func() {
		sum := sha256.Sum256([]byte(res.RenderAll()))
		r.Digests["report.txt"] = hex.EncodeToString(sum[:])
	})
	t.close(root)
	r.Cost = readUsage().since(begin)

	st := out.Stats
	r.Flows, r.CustomersDone, r.Status = len(out.Flows), st.CustomersDone, st.Status()
	r.CellsBuilt = int64(counter("mac_cells_built_total") - cells)
	r.Stages["pass_a"], r.Stages["mac_prebuild"] = st.PassA.Seconds(), st.MACPrebuild.Seconds()
	r.Stages["pass_b"], r.Stages["merge"] = st.PassB.Seconds(), st.Merge.Seconds()
	for stage, a := range st.StageAllocs {
		r.StageAllocs[stage] = float64(a.Objects)
	}
	r.WorkerFlows, r.CacheHits, r.CacheSpills = st.WorkerFlows, st.IntentCacheHits, st.IntentCacheSpills
	return r, out, nil
}

// verifyRoundTrip writes the flow and DNS logs and reads them back: no row
// may be lost. It returns the decode time (the `satreport -from` cost).
func verifyRoundTrip(out *netsim.Output) (time.Duration, error) {
	var fb, db bytes.Buffer
	if err := tstat.WriteFlows(&fb, out.Flows); err != nil {
		return 0, err
	}
	if err := tstat.WriteDNS(&db, out.DNS); err != nil {
		return 0, err
	}
	start := time.Now()
	flows, err := tstat.ReadFlows(&fb)
	if err != nil {
		return 0, fmt.Errorf("ReadFlows: %w", err)
	}
	dns, err := tstat.ReadDNS(&db)
	if err != nil {
		return 0, fmt.Errorf("ReadDNS: %w", err)
	}
	d := time.Since(start)
	if len(flows) != len(out.Flows) || len(dns) != len(out.DNS) {
		return 0, fmt.Errorf("log round trip lost rows: %d/%d flows, %d/%d DNS",
			len(flows), len(out.Flows), len(dns), len(out.DNS))
	}
	return d, nil
}

// checkReps enforces the batch validity rules: every rep must have ended
// ok, digest exactly like the Parallelism:1 reference, and have built the
// number of MAC cells its cache state implies.
func checkReps(ref map[string]string, reps []*repReport, wantCells int64) error {
	for i, r := range reps {
		if r.Status != netsim.StatusOK {
			return fmt.Errorf("rep %d ended %s", i, r.Status)
		}
		if len(r.Digests) != len(ref) {
			return fmt.Errorf("rep %d digested %d outputs, reference has %d", i, len(r.Digests), len(ref))
		}
		for name, want := range ref {
			if got := r.Digests[name]; got != want {
				return fmt.Errorf("rep %d: %s digests %s, Parallelism:1 reference %s", i, name, got, want)
			}
		}
		if r.CellsBuilt != wantCells {
			return fmt.Errorf("rep %d built %d MAC cells, want %d", i, r.CellsBuilt, wantCells)
		}
	}
	return nil
}

// macGrid is the number of cells a cold process must build.
func macGrid() int64 { return int64(mac.NewModel(mac.DefaultParams()).GridSize()) }

// timedReps runs one() until seconds of wall time have passed, at least
// twice so that a median exists.
func timedReps(seconds float64, one func(rep int) (*repReport, error)) ([]*repReport, error) {
	var reps []*repReport
	start := time.Now()
	for len(reps) < 2 || time.Since(start).Seconds() < seconds {
		r, err := one(len(reps))
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// coldRep runs one op in a fresh child process of this same binary.
func coldRep(seed uint64, traced bool) (*repReport, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	var r repReport
	err := runChild(&r, "cold-rep", "-seed", strconv.FormatUint(seed, 10), "-trace", trace,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	return &r, err
}

// childColdRep is the child side of coldRep.
func childColdRep(seed uint64, traced bool, spawnedNS int64) error {
	var t *tracer
	if traced {
		t = newTracer(wlBatchCold)
	}
	setup := time.Since(time.Unix(0, spawnedNS))
	r, out, err := runOp(coldCustomers, seed, workers(), t, 0)
	if err != nil {
		return err
	}
	r.SetupS = setup.Seconds()
	if _, err := verifyRoundTrip(out); err != nil {
		return err
	}
	if r.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	r.Spans = t.all()
	return json.NewEncoder(os.Stdout).Encode(r)
}

// batchSamples are the per-rep samples of the end-to-end metrics.
type batchSamples struct {
	run, fps, cpu, allocs, bytes []float64
}

func sampleReps(reps []*repReport) batchSamples {
	var s batchSamples
	for _, r := range reps {
		f := float64(r.Flows)
		s.run = append(s.run, r.Cost.Wall.Seconds())
		s.fps = append(s.fps, f/r.Cost.Wall.Seconds())
		s.cpu = append(s.cpu, float64(r.Cost.CPU.Microseconds())/f)
		s.allocs = append(s.allocs, float64(r.Cost.Mallocs)/f)
		s.bytes = append(s.bytes, float64(r.Cost.Bytes)/f)
	}
	return s
}

// setBatchEndToEnd fills the end-to-end metrics both batch workloads share.
// The report is the unit of output a user waits for, so xfer_* restate the
// op latency (a run has too few reps to support any tail: see tail).
func setBatchEndToEnd(res *Result, reps []*repReport) {
	s := sampleReps(reps)
	res.set("run_s", s.run...)
	res.set("flows_per_s", s.fps...)
	res.set("cpu_us_per_flow", s.cpu...)
	res.set("allocs_per_flow", s.allocs...)
	res.set("alloc_bytes_per_flow", s.bytes...)
	ms := make([]float64, len(s.run))
	for i, v := range s.run {
		ms[i] = v * 1000
	}
	sort.Float64s(ms)
	res.set("xfer_p95_ms", tail(ms))
	res.set("xfer_p50_ms", ms...)
	countCustomers(res, reps)
	res.setOK()
	res.Notes["reps"] = float64(len(reps))
	res.Notes["flows_per_rep"] = float64(reps[0].Flows)
}

// countCustomers is the batch failure count: a customer the simulator did
// not finish, out of every customer of every rep.
func countCustomers(res *Result, reps []*repReport) {
	for _, r := range reps {
		res.Attempted += int64(r.Customers)
		res.Failed += int64(r.Customers - r.CustomersDone)
	}
}

func column(reps []*repReport, f func(*repReport) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 { return stat("", append([]float64(nil), xs...)...).Value }

// setBatchPerLayer fills the per-layer metrics a traced batch half yields.
// plain are the untraced reps of the same run, p1 the Parallelism:1
// reference op.
func setBatchPerLayer(res *Result, traced, plain []*repReport, p1 *repReport, t *tracer) {
	stage := func(name string) []float64 {
		return column(traced, func(r *repReport) float64 { return r.Stages[name] })
	}
	nsPerFlow := func(name string) []float64 {
		return column(traced, func(r *repReport) float64 { return r.Stages[name] * 1e9 / float64(r.Flows) })
	}
	allocsPerFlow := func(name string) []float64 {
		return column(traced, func(r *repReport) float64 { return r.StageAllocs[name] / float64(r.Flows) })
	}
	res.set("netsim.pass_a_s", stage("pass_a")...)
	res.set("netsim.mac_prebuild_s", stage("mac_prebuild")...)
	res.set("netsim.pass_b_s", stage("pass_b")...)
	res.set("netsim.merge_s", stage("merge")...)
	res.set("netsim.pass_b_ns_per_flow", nsPerFlow("pass_b")...)
	res.set("netsim.pass_b_allocs_per_flow", allocsPerFlow("pass_b")...)
	res.set("netsim.pass_a_allocs", column(traced, func(r *repReport) float64 { return r.StageAllocs["pass_a"] })...)
	res.set("netsim.merge_allocs", column(traced, func(r *repReport) float64 { return r.StageAllocs["merge"] })...)
	res.set("netsim.intent_cache_hits", column(traced, func(r *repReport) float64 { return float64(r.CacheHits) })...)
	res.set("netsim.intent_cache_spills", column(traced, func(r *repReport) float64 { return float64(r.CacheSpills) })...)
	res.set("netsim.worker_imbalance", column(traced, func(r *repReport) float64 {
		most, sum := 0, 0
		for _, n := range r.WorkerFlows {
			most, sum = max(most, n), sum+n
		}
		return float64(most) * float64(len(r.WorkerFlows)) / float64(sum)
	})...)
	res.set("netsim.parallel_speedup", p1.Stages["pass_b"]/median(stage("pass_b")))
	res.set("mac.cells_built", column(traced, func(r *repReport) float64 { return float64(r.CellsBuilt) })...)

	res.set("tstat.encode_s", stage("encode")...)
	res.set("tstat.encode_mb_per_s", column(traced, func(r *repReport) float64 {
		return float64(r.LogBytes) / 1e6 / r.Stages["encode"]
	})...)
	res.set("tstat.encode_allocs_per_flow", allocsPerFlow("encode")...)
	res.set("tstat.log_bytes_per_flow", column(traced, func(r *repReport) float64 {
		return float64(r.LogBytes) / float64(r.Flows)
	})...)
	res.set("analytics.dataset_s", stage("dataset")...)
	res.set("analytics.dataset_ns_per_flow", nsPerFlow("dataset")...)
	res.set("analytics.dataset_allocs_per_flow", allocsPerFlow("dataset")...)
	res.set("report.analyze_s", stage("analyze")...)
	res.set("report.render_s", stage("render")...)

	b := budget(t.all())
	res.Budget = &b
	for _, layer := range []string{"mac", "netsim", "tstat", "analytics", "report", "bench"} {
		res.set(layer+".self_share", b.share(layer))
	}
	res.set("bench.span_overhead_ratio", median(sampleReps(traced).cpu)/median(sampleReps(plain).cpu))
	countCustomers(res, plain)
	countCustomers(res, traced)
	res.Notes["reps"] = float64(len(traced))
	res.Notes["flows_per_rep"] = float64(traced[0].Flows)
}

// checkBudget is the traced run's own validity rule: the layers' self
// times must account for the traced wall time to within 5 % — what is left
// is the harness's own time between calls.
func checkBudget(b layerBudget) error {
	if s := b.share("bench"); s > 0.05 {
		return fmt.Errorf("layer self-times cover only %.1f %% of the traced wall time", 100*(1-s))
	}
	return nil
}

// runBatchCold: every rep a fresh process, so every rep pays the MAC
// micro-simulation; the parent only spawns, waits and checks.
func runBatchCold(res *Result, seed uint64, seconds float64) error {
	p1, _, err := runOp(coldCustomers, seed, 1, nil, 0)
	if err != nil {
		return err
	}
	rep := func(traced bool) func(int) (*repReport, error) {
		return func(int) (*repReport, error) { return coldRep(seed, traced) }
	}
	if !res.Traced {
		reps, err := timedReps(seconds, rep(false))
		if err != nil {
			return err
		}
		if err := checkReps(p1.Digests, reps, macGrid()); err != nil {
			return err
		}
		setBatchEndToEnd(res, reps)
		res.set("setup_s", column(reps, func(r *repReport) float64 { return r.SetupS })...)
		res.set("peak_rss_mb", column(reps, func(r *repReport) float64 { return r.PeakRSSMB })...)
		return nil
	}

	plain, err := timedReps(seconds/2, rep(false))
	if err != nil {
		return err
	}
	traced, err := timedReps(seconds/2, rep(true))
	if err != nil {
		return err
	}
	if err := checkReps(p1.Digests, append(plain, traced...), macGrid()); err != nil {
		return err
	}
	t := newTracer(wlBatchCold)
	for i, r := range traced {
		t.adopt(r.Spans, i)
	}
	setBatchPerLayer(res, traced, plain, p1, t)
	if err := checkBudget(*res.Budget); err != nil {
		return err
	}
	if err := microMAC(res); err != nil {
		return err
	}
	if err := microWorkload(res, coldCustomers); err != nil {
		return err
	}
	microPath(res)
	return writeSpans(res.Workload, t)
}

// runBatchWarm: one process; a Parallelism:1 warm-up rep fills the cell
// cache and yields the reference digests, then the same op is timed at P.
func runBatchWarm(res *Result, seed uint64, seconds float64) error {
	p1, _, err := runOp(warmCustomers, seed, 1, nil, 0)
	if err != nil {
		return err
	}
	setup := time.Since(procStart)
	var last *netsim.Output
	rep := func(t *tracer) func(int) (*repReport, error) {
		return func(i int) (*repReport, error) {
			r, out, err := runOp(warmCustomers, seed, workers(), t, i)
			last = out
			return r, err
		}
	}
	if !res.Traced {
		reps, err := timedReps(seconds, rep(nil))
		if err != nil {
			return err
		}
		if err := checkReps(p1.Digests, reps, 0); err != nil {
			return err
		}
		if _, err := verifyRoundTrip(last); err != nil {
			return err
		}
		setBatchEndToEnd(res, reps)
		res.set("setup_s", setup.Seconds())
		return setPeakRSS(res)
	}

	plain, err := timedReps(seconds/2, rep(nil))
	if err != nil {
		return err
	}
	t := newTracer(wlBatchWarm)
	traced, err := timedReps(seconds/2, rep(t))
	if err != nil {
		return err
	}
	if err := checkReps(p1.Digests, append(plain, traced...), 0); err != nil {
		return err
	}
	setBatchPerLayer(res, traced, plain, p1, t)
	if err := checkBudget(*res.Budget); err != nil {
		return err
	}
	decode, err := verifyRoundTrip(last)
	if err != nil {
		return err
	}
	res.set("tstat.decode_s", decode.Seconds())
	if err := microSortMerge(res, last, seed); err != nil {
		return err
	}
	microTracker(res)
	if err := microWorkload(res, warmCustomers); err != nil {
		return err
	}
	microPath(res)
	res.set("mac.sample_ns", microMACSample())
	if err := microLiveProcess(res); err != nil {
		return err
	}
	return writeSpans(res.Workload, t)
}

// writeSpans writes the traced run's spans to out/trace-<workload>.jsonl.
func writeSpans(workload string, t *tracer) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir+"/out", 0o755); err != nil {
		return err
	}
	return writeJSONL(dir+"/out/trace-"+workload+".jsonl", t.all())
}
