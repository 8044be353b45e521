package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/netsim"
)

// These tests run no workload: `go test` here finishes in seconds.

// TestBenchmarkJSONMatchesProgram is the observability_test.go pattern for
// the benchmark: what BENCHMARK.json declares and what the program emits
// must be the same set, within the driver's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range checkSpec(f) {
		t.Error(e)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Fatalf("command has %d strings, want 1..32", len(f.Command))
	}
	for _, arg := range f.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || len(arg) > 200 {
			t.Errorf("command argument %q leaves the checkout or is too long", arg)
		}
	}
	for _, w := range workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
	}
	if len(runners) != len(workloads) {
		t.Errorf("%d runners for %d declared workloads", len(runners), len(workloads))
	}
}

func TestCheckSpecCatchesDrift(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f.EndToEnd = append(f.EndToEnd, declMetric{Name: "made up!", Unit: "s", Better: "lower"})
	f.PerLayer = f.PerLayer[1:]
	f.Workloads[0].Name = wlBatchWarm
	got := strings.Join(checkSpec(f), "\n")
	for _, want := range []string{"declared but never emitted", "is not [A-Za-z0-9]", "emitted but not declared", "used twice", "has no bound"} {
		if !strings.Contains(got, want) {
			t.Errorf("checkSpec missed %q in:\n%s", want, got)
		}
	}
}

func TestResultHoldsExactlyTheDeclaredMetrics(t *testing.T) {
	r := newResult(wlPepload, false, Fingerprint{})
	if missing := r.complete(); len(missing) != len(endToEnd) {
		t.Fatalf("empty end-to-end result lacks %d metrics, want %d", len(missing), len(endToEnd))
	}
	for _, d := range endToEnd {
		r.set(d.Name, 1.5)
	}
	if errs := r.complete(); len(errs) != 0 {
		t.Fatalf("full result incomplete: %v", errs)
	}
	r.Metrics["stowaway"] = Stat{}
	if errs := r.complete(); len(errs) != 1 || errs[0] != "undeclared stowaway" {
		t.Fatalf("undeclared metric not caught: %v", errs)
	}

	traced := newResult(wlPepload, true, Fingerprint{})
	if errs := traced.complete(); len(errs) != 0 {
		t.Fatalf("traced result must start with every per-layer metric at 0: %v", errs)
	}
	if len(traced.Metrics) != len(perLayer) {
		t.Fatalf("traced result has %d metrics, want %d", len(traced.Metrics), len(perLayer))
	}
}

func TestDriverLine(t *testing.T) {
	r := newResult(wlPepload, false, Fingerprint{})
	r.Attempted, r.Failed, r.Correct = 10, 1, true
	r.set("setup_s", 0.25, 0.75, 0.5)
	var got map[string]any
	if err := json.Unmarshal([]byte(r.driverLine()), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"correct": true, "attempted": 10.0, "failed": 1.0,
		"metrics": map[string]any{"setup_s": map[string]any{"value": 0.5, "unit": "s"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("driver line %v, want %v", got, want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("five values: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("two values: %v %v %v", q1, q2, q3)
	}
	if s := stat("s", 3, 1, 2); s.Value != 2 || s.N != 3 || s.Unit != "s" {
		t.Errorf("stat = %+v", s)
	}
}

// The reporting rule: the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {400, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 400)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p := percentile(sorted, 95); p != 380 {
		t.Errorf("p95 of 1..400 = %v, want 380 (20 samples beyond)", p)
	}
	if p := percentile(sorted[:6], 95); p != 6 {
		t.Errorf("p95 of six samples = %v, want the largest", p)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []Span{
		{ID: 1, Layer: "bench", StartNS: at(0), EndNS: at(100)},
		{ID: 2, Parent: 1, Layer: "a", StartNS: at(10), EndNS: at(30)},
		{ID: 3, Parent: 1, Layer: "b", StartNS: at(20), EndNS: at(50)},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Layer: "b", StartNS: at(90), EndNS: at(120)}, // clipped to the parent
		{ID: 5, Parent: 3, Layer: "c", StartNS: at(25), EndNS: at(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 - (10..50) - (90..100)
		2: 20 * time.Millisecond,
		3: 20 * time.Millisecond, // 30 - child 5
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	b := budget(spans)
	if b.Ops != 1 || b.Wall != 100*time.Millisecond {
		t.Fatalf("budget ops=%d wall=%v", b.Ops, b.Wall)
	}
	if got := b.share("b"); got != 0.5 {
		t.Errorf("share(b) = %v, want 0.5", got)
	}
	if err := checkBudget(b); err == nil {
		t.Error("a harness share of 50 % must fail the 5 % rule")
	}
	spans[0].StartNS, spans[0].EndNS = at(9), at(51) // harness left with 2 of 42 ms
	if err := checkBudget(budget(spans[:3])); err != nil {
		t.Errorf("a harness share under 5 %% must pass: %v", err)
	}
}

func TestTracerAdoptRenumbers(t *testing.T) {
	tr := newTracer(wlBatchCold)
	root := tr.open(0, 0, "op", "bench")
	tr.add(root, 0, "x", "a", time.Now(), time.Now(), false)
	tr.close(root)
	child := []Span{{ID: 1, Name: "op"}, {ID: 2, Parent: 1, Name: "y"}}
	tr.adopt(child, 7)
	all := tr.all()
	if len(all) != 4 || all[3].ID != 4 || all[3].Parent != 3 || all[3].Rep != 7 || all[2].Parent != 0 {
		t.Fatalf("adopted spans misnumbered: %+v", all)
	}
	var none *tracer
	if id := none.open(0, 0, "op", "bench"); id != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	none.close(0)
}

func TestBoundComparison(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if w := worseBy(100, 110, "lower"); !near(w, 0.10) {
		t.Errorf("lower-is-better rose 10 %%: worseBy = %v", w)
	}
	if w := worseBy(100, 90, "higher"); !near(w, 0.10) {
		t.Errorf("higher-is-better fell 10 %%: worseBy = %v", w)
	}
	if w := worseBy(100, 90, "lower"); !near(w, -0.10) {
		t.Errorf("an improvement must be negative: %v", w)
	}
	if regressed(100, 109, "lower", 0.10) || !regressed(100, 111, "lower", 0.10) {
		t.Error("bound 0.10 must pass +9 % and fail +11 %")
	}
	if regressed(100, 95, "higher", 0.10) || !regressed(100, 85, "higher", 0.10) {
		t.Error("bound 0.10 must pass -5 % and fail -15 % on a higher-is-better metric")
	}
}

func okRep() *repReport {
	return &repReport{
		Status: netsim.StatusOK, CellsBuilt: 45,
		Digests: map[string]string{"flows.tsv": "aa", "dns.tsv": "bb"},
	}
}

func TestCheckRepsEnforcesBatchValidity(t *testing.T) {
	ref := map[string]string{"flows.tsv": "aa", "dns.tsv": "bb"}
	if err := checkReps(ref, []*repReport{okRep(), okRep()}, 45); err != nil {
		t.Fatalf("valid reps rejected: %v", err)
	}
	bad := okRep()
	bad.Digests["flows.tsv"] = "ab"
	if err := checkReps(ref, []*repReport{okRep(), bad}, 45); err == nil || !strings.Contains(err.Error(), "flows.tsv") {
		t.Errorf("mismatching digest not caught: %v", err)
	}
	if err := checkReps(ref, []*repReport{okRep()}, 0); err == nil {
		t.Error("a warm rep that built 45 cells must be invalid")
	}
	bad = okRep()
	bad.Status = netsim.StatusDegraded
	if err := checkReps(ref, []*repReport{bad}, 45); err == nil {
		t.Error("a degraded rep must be invalid")
	}
	bad = okRep()
	delete(bad.Digests, "dns.tsv")
	if err := checkReps(ref, []*repReport{bad}, 45); err == nil {
		t.Error("a rep missing an output must be invalid")
	}
}

func TestCheckLiveEnforcesLiveValidity(t *testing.T) {
	ok := liveFacts{
		Intents: 100, SynthPushed: 90, SynthShed: 10,
		Windowed: 150, Late: 20, RecordsAdmitted: 170, CadenceSamples: 30,
	}
	if err := checkLive(ok); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	for name, mutate := range map[string]func(*liveFacts){
		"degraded":            func(f *liveFacts) { f.Degraded = true },
		"queue left":          func(f *liveFacts) { f.QueueSynth = 1 },
		"goroutines":          func(f *liveFacts) { f.LeakedGoroutines = 3 },
		"intent conservation": func(f *liveFacts) { f.SynthShed = 9 },
		"record conservation": func(f *liveFacts) { f.Late = 19 },
		"never moved":         func(f *liveFacts) { f.Intents, f.SynthPushed, f.SynthShed = 0, 0, 0 },
	} {
		f := ok
		mutate(&f)
		if err := checkLive(f); err == nil {
			t.Errorf("%s: invalid run accepted", name)
		}
	}
}

func TestCheckPeploadEnforcesSocketValidity(t *testing.T) {
	flows := []flowTiming{{size: 8192, got: 8192}, {size: 65536, got: 65536}}
	if err := checkPepload(0, flows); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	if err := checkPepload(1, flows); err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Errorf("leaked stream not caught: %v", err)
	}
	flows[1].got = 65535
	if err := checkPepload(0, flows); err == nil || !strings.Contains(err.Error(), "bytes down") {
		t.Errorf("short transfer not caught: %v", err)
	}
	if err := checkPepload(0, nil); err == nil {
		t.Error("a run without flows must be invalid")
	}
}

func TestFlowSizesDealTheMixExactly(t *testing.T) {
	root := dist.NewRand(7)
	var first, other []int
	for i := uint64(0); i < 50; i++ {
		first = append(first, flowSize(root, i))
		other = append(other, flowSize(dist.NewRand(8), i))
	}
	for b := 0; b < 50; b += 10 {
		count := map[int]int{}
		for _, s := range first[b : b+10] {
			count[s]++
		}
		if count[8<<10] != 6 || count[64<<10] != 3 || count[256<<10] != 1 {
			t.Fatalf("flows %d..%d carry %v, want 6x8k 3x64k 1x256k", b, b+9, count)
		}
	}
	for i := uint64(0); i < 50; i++ {
		if flowSize(dist.NewRand(7), i) != first[i] {
			t.Fatal("the same seed must deal the same sizes")
		}
	}
	if reflect.DeepEqual(first, other) {
		t.Error("another seed must deal another order")
	}
}

func TestCompareRefusesOtherFingerprints(t *testing.T) {
	fp := Fingerprint{GoVersion: "go1.24", NumCPU: 2, P: 2, Seed: 42, Seconds: 15, Commit: "aaa"}
	mk := func(fp Fingerprint, run float64) *Report {
		r := newResult(wlBatchWarm, false, fp)
		for _, d := range endToEnd {
			r.set(d.Name, 1)
		}
		r.set("run_s", run)
		return &Report{Kind: "end_to_end", Fingerprint: fp, Workloads: []*Result{r}}
	}
	other := fp
	other.Commit = "bbb" // comparing two commits is the point
	vs, err := compareReports(mk(fp, 2.0), mk(other, 2.6))
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, v := range vs {
		if v.Metric == "run_s" {
			hit = v.Regressed && v.Workload == wlBatchWarm
		} else if v.Regressed {
			t.Errorf("%s flagged without a change", v.Metric)
		}
	}
	if !hit {
		t.Error("run_s +30 % against a 25 % bound must be flagged on batch-warm")
	}
	other.NumCPU = 8
	if _, err := compareReports(mk(fp, 2), mk(other, 2)); err == nil {
		t.Error("results from another box must refuse to compare")
	}
	other = fp
	other.Seed = 7
	if _, err := compareReports(mk(fp, 2), mk(other, 2)); err == nil {
		t.Error("results from another seed must refuse to compare")
	}
}

// TestWriteBenchmarkJSON regenerates ../BENCHMARK.json from the program's
// declarations when BENCHMARK_WRITE=1; otherwise it does nothing.
func TestWriteBenchmarkJSON(t *testing.T) {
	if os.Getenv("BENCHMARK_WRITE") != "1" {
		t.Skip("set BENCHMARK_WRITE=1 to regenerate ../BENCHMARK.json")
	}
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		b := d.Bound
		f.EndToEnd = append(f.EndToEnd, declMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, declMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if err := writeJSON("../BENCHMARK.json", f); err != nil {
		t.Fatal(err)
	}
}
