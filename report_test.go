package satwatch

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"satwatch/internal/analytics"
	"satwatch/internal/errant"
	"satwatch/internal/live"
)

var (
	smallOnce sync.Once
	smallRes  *Results
	smallErr  error
)

// smallResults runs the pinned small pipeline once: 20 customers, one
// day, seed 42, GEO.
func smallResults(t *testing.T) *Results {
	t.Helper()
	smallOnce.Do(func() {
		smallRes, smallErr = New(WithCustomers(20), WithDays(1), WithSeed(42)).Run()
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallRes
}

// TestReportGolden pins the report text: every table and figure, the
// latency signatures and the ERRANT profiles of the small run. The other
// report tests compare two renderings of one build or check bands; this
// one fails when any cell of any table moves. Never regenerate it to make
// a refactor pass.
func TestReportGolden(t *testing.T) {
	r := smallResults(t)
	text := r.RenderAll() + r.Signatures.Render() + errant.Render(errant.BuildProfiles(r.Dataset), "eth0")
	const want = "f116d6c1398921da29a98ceaef01b80ae52bcbca0980ffa4f5ef1e9c935bc0b6"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
		t.Errorf("report sha256 %s, want %s; the report:\n%s", got, want, text)
	}
}

// TestNewDatasetBytesPerFlow: NewDataset folds the Output's own records
// and allocates only the aggregates, about 121 bytes a flow; one enriched
// copy of the flow log (144 bytes a flow) on top of them breaks the
// budget. A race build reads about 2.6 kB, as the race detector drops
// sync.Pool puts at random and the classifier's regular expressions then
// allocate their backtracking state on every match.
func TestNewDatasetBytesPerFlow(t *testing.T) {
	out := smallResults(t).Output
	budget := 160.0
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				budget += 3000
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds := analytics.NewDataset(out, 1)
	runtime.ReadMemStats(&after)
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(out.Flows))
	t.Logf("%.1f bytes per flow over %d flows", perFlow, len(ds.Flows))
	if perFlow > budget {
		t.Errorf("NewDataset allocates %.1f bytes per flow, budget %.0f", perFlow, budget)
	}
}

// TestLiveWindowEqualsBatchAggregates: the two drivers fold the same
// records to the same totals. The small run's flow and DNS records, in
// start order, go through one live window spanning the day; its volume
// per country, queries per resolver and RTT sample count must be what
// the batch Dataset folded from them.
func TestLiveWindowEqualsBatchAggregates(t *testing.T) {
	r := smallResults(t)
	flows, dns := r.Output.Flows, r.Output.DNS
	a := live.NewAnalytics(24*time.Hour, 0, 0, r.Output.CountryPrefixes, nil)
	for len(flows) > 0 || len(dns) > 0 {
		if len(dns) == 0 || len(flows) > 0 && flows[0].Start <= dns[0].T {
			a.AddFlow(flows[0])
			flows = flows[1:]
		} else {
			a.AddDNS(dns[0])
			dns = dns[1:]
		}
	}
	a.Finalize()
	ws := a.Recent()
	if len(ws) != 1 {
		t.Fatalf("%d live windows, want the one spanning the day", len(ws))
	}
	w, ds := ws[0], r.Dataset

	bytes := map[string]int64{}
	for code, byProto := range ds.Volume {
		for _, v := range byProto {
			bytes[string(code)] += v
		}
	}
	if !reflect.DeepEqual(w.BytesByCountry, bytes) {
		t.Errorf("live bytes by country %v, batch %v", w.BytesByCountry, bytes)
	}
	queries := map[string]int64{}
	for _, byResolver := range ds.ResolverUsage {
		for id, n := range byResolver {
			queries[string(id)] += int64(n)
		}
	}
	if !reflect.DeepEqual(w.DNSByResolver, queries) {
		t.Errorf("live queries by resolver %v, batch %v", w.DNSByResolver, queries)
	}
	var rtts int64
	for _, xs := range ds.SatRTT {
		rtts += int64(len(xs))
	}
	if w.RTTSamples != rtts || rtts == 0 {
		t.Errorf("live RTT samples %d, batch %d", w.RTTSamples, rtts)
	}
}
