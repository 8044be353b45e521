package satwatch

import (
	"reflect"
	"strings"
	"testing"

	"satwatch/internal/analytics"
	"satwatch/internal/faults"
	"satwatch/internal/netsim"
	"satwatch/internal/report"
)

func TestOptionsWiring(t *testing.T) {
	p := New(
		WithCustomers(77), WithDays(3), WithSeed(9),
		WithoutPEP(), WithoutMAC(), WithAfricanGroundStation(), WithForcedOperatorDNS(),
	)
	cfg := p.Config()
	if cfg.Customers != 77 || cfg.Days != 3 || cfg.Seed != 9 {
		t.Fatalf("core options: %+v", cfg)
	}
	if !cfg.DisablePEP || !cfg.DisableMAC || !cfg.AfricanGroundStation || !cfg.ForceOperatorDNS {
		t.Fatal("ablation options not applied")
	}
}

func TestDefaults(t *testing.T) {
	p := New()
	cfg := p.Config()
	if cfg.Customers != 400 || cfg.Days != 2 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestRenderAllContainsEveryExperiment(t *testing.T) {
	r := experimentResults(t)
	out := r.RenderAll()
	for _, want := range []string{
		"Table 1:", "Figure 2:", "Figure 3:", "Figure 4:", "Figure 5:",
		"Figure 6:", "Figure 7:", "Figure 8a:", "Figure 8b:", "Figure 9:",
		"Figure 10:", "Tables 2/4/5", "Figure 11:", "Table 3:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
}

func TestAnalyzeReusesOutput(t *testing.T) {
	r := experimentResults(t)
	p := New(WithCustomers(300), WithDays(2), WithSeed(2022))
	ds := analytics.NewDataset(r.Output, 2)
	again := p.Analyze(r.Output, ds)
	// Re-analysis of the same logs reproduces the same headline numbers.
	if again.Table1.SharePct != nil && r.Table1.SharePct != nil {
		for proto, v := range r.Table1.SharePct {
			if got := again.Table1.SharePct[proto]; got != v {
				t.Fatalf("re-analysis diverged for %v: %v vs %v", proto, got, v)
			}
		}
	}
	if len(again.Fig2.Rows) != len(r.Fig2.Rows) {
		t.Fatal("Fig2 rows differ on re-analysis")
	}
}

// TestAnalyzeParallelismInvariance: the builders run side by side, so the
// Results — every field, and every rendering — must not depend on how
// many goroutines they were spread over; and Table 2, taken from the
// Tables 4-5 aggregate, is what building it on its own gives.
func TestAnalyzeParallelismInvariance(t *testing.T) {
	r := experimentResults(t)
	ds := analytics.NewDataset(r.Output, 2)
	serial := New(WithDays(2), WithParallelism(1)).Analyze(r.Output, ds)
	parallel := New(WithDays(2), WithParallelism(8)).Analyze(r.Output, ds)
	sv, pv := reflect.ValueOf(*serial), reflect.ValueOf(*parallel)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).IsZero() {
			t.Errorf("Results.%s left empty", sv.Type().Field(i).Name)
		}
		if !reflect.DeepEqual(sv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Errorf("Results.%s differs between Parallelism 1 and 8", sv.Type().Field(i).Name)
		}
	}
	for name, render := range map[string]func(*Results) string{
		"RenderAll":  (*Results).RenderAll,
		"Signatures": func(r *Results) string { return r.Signatures.Render() },
		"Tables45":   func(r *Results) string { return r.Tables45.Render() },
	} {
		if render(serial) != render(parallel) {
			t.Errorf("%s renders differently at Parallelism 1 and 8", name)
		}
	}
	if direct := report.BuildResolverImpact(ds, "GB", "NG"); !reflect.DeepEqual(parallel.Table2, direct) {
		t.Error("Table 2 derived from Tables 4-5 differs from Table 2 built directly")
	} else if len(direct.AvgRTT) == 0 {
		t.Error("Table 2 is empty: the comparison proves nothing")
	}
}

func TestTop6(t *testing.T) {
	if len(Top6()) != 6 {
		t.Fatal("Top6 broken")
	}
}

// TestReportFromLogsEqualsRun is the contract that lets satreport only
// read: the report of a run's saved logs (netsim.WriteLogs → ReadLogs →
// Analyze) is the report of the run itself, byte for byte, every table
// and the latency signatures included. The replay takes its observation
// window from the logs (Output.Days), as satreport does.
func TestReportFromLogsEqualsRun(t *testing.T) {
	stress, err := faults.Preset("stress", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, constellation string
		faults              *faults.Schedule
	}{
		{"geo", "geo", nil},
		{"leo", "leo", nil},
		{"stress", "geo", stress},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(WithCustomers(20), WithDays(1), WithSeed(42), WithConstellation(tc.constellation))
			p.cfg.Faults = tc.faults
			run, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Fig8b.Rows) == 0 {
				t.Fatal("the run's Figure 8b is empty: nothing to compare")
			}
			dir := t.TempDir()
			if _, err := netsim.WriteLogs(dir, run.Output); err != nil {
				t.Fatal(err)
			}
			out, _, err := netsim.ReadLogs(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			replay := p.Analyze(out, analytics.NewDataset(out, out.Days()))
			want := strings.Split(run.RenderAll()+run.Signatures.Render(), "\n")
			got := strings.Split(replay.RenderAll()+replay.Signatures.Render(), "\n")
			for i := 0; i < len(want) || i < len(got); i++ {
				var w, g string
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				if w != g {
					t.Fatalf("report line %d: from logs %q, from the run %q", i+1, g, w)
				}
			}
		})
	}
}
