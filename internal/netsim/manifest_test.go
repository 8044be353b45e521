package netsim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satwatch/internal/obs"
)

// TestManifestIntegration runs a small simulation end to end, writes the
// run manifest the way the CLIs do, and asserts it is parseable with
// nonzero pass timings and intact output digests.
func TestManifestIntegration(t *testing.T) {
	cfg := Config{Customers: 30, Days: 1, Seed: 7, Parallelism: 2}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.PassA <= 0 || out.Stats.PassB <= 0 {
		t.Fatalf("run stats missing pass timings: %+v", out.Stats)
	}
	if out.Stats.Workers != 2 {
		t.Fatalf("effective workers = %d, want 2", out.Stats.Workers)
	}
	if got, want := out.Stats.Flows(), len(out.Flows); got == 0 {
		t.Fatalf("worker flow counts empty (records: %d)", want)
	}
	// Pass B allocates per flow little beyond what the logged record
	// keeps: 0.55 objects per flow record here, the workers' warm-up
	// included (0.88 race-built). It read 4.53 while every flow allocated
	// its tracker state and encoded its messages into fresh buffers.
	budget := 0.8
	if raceBuild() {
		budget += 0.4
	}
	passB := float64(out.Stats.StageAllocs["pass_b"].Objects) / float64(len(out.Flows))
	if passB > budget {
		t.Errorf("pass B allocates %.3f objects per flow, budget %.2f", passB, budget)
	}
	// Bytes, the figure objects miss: pass A reads 302 per intent, the
	// exact-size cached copy included (640 while every customer-day grew
	// its intent slice by append and the cache kept the spare capacity and
	// a by-value catalog entry per intent). Pass B and the merge read 822
	// per flow record (1 076 while every record was written three times:
	// its log chunk, the worker's exact-size copy and the merged output);
	// a race build reads about 4.7 kB, as the race detector drops
	// sync.Pool puts at random.
	allocs := out.Stats.StageAllocs
	aBudget, bBudget := 360.0, 920.0
	if raceBuild() {
		bBudget += 4500
	}
	aBytes := float64(allocs["pass_a"].Bytes) / float64(out.Stats.Flows())
	bBytes := float64(allocs["pass_b"].Bytes+allocs["merge"].Bytes) / float64(len(out.Flows))
	t.Logf("pass A %.0f bytes per intent; pass B and merge %.0f bytes per flow", aBytes, bBytes)
	if aBytes > aBudget {
		t.Errorf("pass A allocates %.0f bytes per intent, budget %.0f", aBytes, aBudget)
	}
	if bBytes > bBudget {
		t.Errorf("pass B and merge allocate %.0f bytes per flow, budget %.0f", bBytes, bBudget)
	}

	dir := t.TempDir()
	output := filepath.Join(dir, "flows.tsv")
	if err := os.WriteFile(output, []byte("placeholder\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := ManifestFor("netsim-test", cfg, out)
	if err := m.AddOutput(output); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}

	// Re-read through the generic JSON path to prove it parses.
	raw, err := os.ReadFile(filepath.Join(dir, obs.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	var got obs.Manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != "netsim-test" || got.Seed != 7 || got.Parallelism != 2 {
		t.Fatalf("manifest identity fields wrong: %+v", got)
	}
	if got.TimingsSeconds["pass_a"] <= 0 || got.TimingsSeconds["pass_b"] <= 0 {
		t.Fatalf("manifest pass timings not positive: %v", got.TimingsSeconds)
	}
	if _, ok := got.Outputs["flows.tsv"]; !ok {
		t.Fatalf("manifest missing output digest: %v", got.Outputs)
	}
	// The embedded config must round-trip the run parameters.
	cfgJSON, err := json.Marshal(got.Config)
	if err != nil {
		t.Fatal(err)
	}
	var rt Config
	if err := json.Unmarshal(cfgJSON, &rt); err != nil {
		t.Fatalf("manifest config does not unmarshal into netsim.Config: %v", err)
	}
	if rt.Customers != 30 || rt.Days != 1 || rt.Seed != 7 {
		t.Fatalf("manifest config lost fields: %+v", rt)
	}
}

// TestProgressLine sanity-checks the live progress rendering after a run.
func TestProgressLine(t *testing.T) {
	if _, err := Run(Config{Customers: 10, Days: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	line := ProgressLine(2 * time.Second)
	for _, want := range []string{"customers", "flows", "ETA"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
}
