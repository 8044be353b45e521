package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_events_total", "", "")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	c.Add(-5)
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter accepted negative add: %d", got)
	}
}

func TestGaugeConcurrentAddAndMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("t_depth", "", "")
	m := r.Gauge("t_peak", "", "")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(1)
				m.SetMax(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge add = %v, want %d", got, workers*per)
	}
	if got, want := m.Value(), float64(workers*per-1); got != want {
		t.Fatalf("gauge max = %v, want %v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_size", "", "bytes", []float64{10, 100, 1000})
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 2000)) // half <1000, some in each bucket
			}
		}()
	}
	wg.Wait()
	s := h.snap()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	// i%2000: values 0..10 → first bucket has 11 per loop pass of 2000.
	if got, want := s.Buckets[0].Count, int64(workers*per/2000*11); got != want {
		t.Fatalf("bucket[0] = %d, want %d", got, want)
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", s.Buckets[len(s.Buckets)-1].UpperBound)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("t_op_seconds", "op latency")
	tm.Observe(1500 * time.Millisecond)
	tm.Observe(500 * time.Millisecond)
	if s := tm.snap(); s.Count != 2 || s.Value != 2 {
		t.Fatalf("timer = %d obs, %v s total", s.Count, s.Value)
	}
	stop := tm.Start()
	stop()
	if tm.snap().Count != 3 {
		t.Fatalf("Start/stop did not record")
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_x", "", "")
	b := r.Counter("t_x", "", "")
	if a != b {
		t.Fatalf("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("t_x", "", "")
}

// TestPrometheusGolden pins the exact exposition output.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_events_total", "Events processed.", "")
	g := r.Gauge("demo_queue_depth", "Live queue depth.", "items")
	tm := r.Timer("demo_merge_seconds", "Merge wall time.")
	h := r.Histogram("demo_delay_seconds", "Access delay.", "seconds", []float64{0.01, 0.1, 1})
	c.Add(42)
	g.Set(7.5)
	tm.Observe(250 * time.Millisecond)
	tm.Observe(750 * time.Millisecond)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_delay_seconds Access delay.
# TYPE demo_delay_seconds histogram
demo_delay_seconds_bucket{le="0.01"} 1
demo_delay_seconds_bucket{le="0.1"} 3
demo_delay_seconds_bucket{le="1"} 3
demo_delay_seconds_bucket{le="+Inf"} 4
demo_delay_seconds_sum 2.605
demo_delay_seconds_count 4
# HELP demo_events_total Events processed.
# TYPE demo_events_total counter
demo_events_total 42
# HELP demo_merge_seconds Merge wall time.
# TYPE demo_merge_seconds summary
demo_merge_seconds_sum 1
demo_merge_seconds_count 2
# HELP demo_queue_depth Live queue depth.
# TYPE demo_queue_depth gauge
demo_queue_depth 7.5
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}

func TestJSONDumpRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_a_total", "help a", "").Add(3)
	h := r.Histogram("t_b_seconds", "", "seconds", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump map[string]struct {
		Kind    string  `json:"kind"`
		Value   float64 `json:"value"`
		Count   int64   `json:"count"`
		Buckets []struct {
			LE    any   `json:"le"`
			Count int64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump["t_a_total"].Value != 3 || dump["t_a_total"].Kind != "counter" {
		t.Fatalf("counter dump wrong: %+v", dump["t_a_total"])
	}
	b := dump["t_b_seconds"]
	if b.Count != 2 || b.Value != 2.5 || len(b.Buckets) != 2 || b.Buckets[1].LE != "inf" {
		t.Fatalf("histogram dump wrong: %+v", b)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "", "")
	h := r.Histogram("t_h", "", "", []float64{1})
	c.Inc()
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || h.snap().Count != 0 || h.Sum() != 0 {
		t.Fatalf("Reset left state behind")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "flows.tsv")
	if err := os.WriteFile(out, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("testtool", 99)
	m.Parallelism = 4
	m.AddTiming("pass_a", 1500*time.Millisecond)
	if err := m.AddOutput(out); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "testtool" || got.Seed != 99 || got.Parallelism != 4 {
		t.Fatalf("manifest fields lost: %+v", got)
	}
	if got.TimingsSeconds["pass_a"] != 1.5 {
		t.Fatalf("timing lost: %v", got.TimingsSeconds)
	}
	d, ok := got.Outputs["flows.tsv"]
	if !ok || !strings.HasPrefix(d, "sha256:") || len(d) != len("sha256:")+64 {
		t.Fatalf("digest malformed: %q", d)
	}
}

func TestManifestStatusFaultsErrorsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest("testtool", 7)
	m.Status = "degraded"
	m.Faults = map[string]any{"preset": "stress", "events": 5}
	m.Errors = []string{"customer 12: panic: boom", "customer 19: panic: boom"}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != "degraded" {
		t.Fatalf("status lost: %q", got.Status)
	}
	if len(got.Errors) != 2 || !strings.Contains(got.Errors[0], "panic: boom") {
		t.Fatalf("errors lost: %v", got.Errors)
	}
	f, ok := got.Faults.(map[string]any)
	if !ok || f["preset"] != "stress" {
		t.Fatalf("faults lost: %#v", got.Faults)
	}

	// A clear-sky OK manifest omits all three fields from the JSON.
	clear := NewManifest("testtool", 7)
	clear.Status = "ok"
	if err := clear.Write(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "faults") || strings.Contains(string(raw), "errors") {
		t.Fatalf("clear-sky manifest carries fault fields:\n%s", raw)
	}
}

func TestETAAndRate(t *testing.T) {
	if got := ETA(0, 100, time.Second); got != "ETA --" {
		t.Fatalf("ETA at zero progress = %q", got)
	}
	if got := ETA(50, 100, 10*time.Second); got != "ETA 10s" {
		t.Fatalf("ETA halfway = %q", got)
	}
	if got := FormatRate(4100, time.Second); got != "4.1k/s" {
		t.Fatalf("rate = %q", got)
	}
}

func TestStartProgress(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	stop := StartProgress(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), 10*time.Millisecond, func(el time.Duration) string { return "tick" })
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if strings.Count(out, "tick") < 2 {
		t.Fatalf("expected at least 2 progress lines, got %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// ReadManifest parses dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obs: manifest parse: %w", err)
	}
	return &m, nil
}
