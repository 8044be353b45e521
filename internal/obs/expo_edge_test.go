package obs

import (
	"bytes"
	"strings"
	"testing"
)

// HELP text with backslashes or newlines must be escaped per the text
// exposition format, or a single help string breaks line-oriented
// scrapers for the whole page.
func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("edge_escape_total", "Path C:\\logs,\nsecond line.", "").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP edge_escape_total Path C:\\logs,\nsecond line.` + "\n"
	if !strings.Contains(got, want) {
		t.Fatalf("HELP not escaped:\n%s", got)
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if line == "" {
			t.Fatalf("raw newline leaked into exposition:\n%s", got)
		}
	}
}

// Observations past the last finite bound must appear in the implicit
// +Inf bucket, and the cumulative +Inf count must equal _count.
func TestPrometheusInfBucketCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_delay_seconds", "", "seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)  // beyond the last finite bound
	h.Observe(100) // beyond the last finite bound

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		`edge_delay_seconds_bucket{le="0.1"} 1`,
		`edge_delay_seconds_bucket{le="1"} 2`,
		`edge_delay_seconds_bucket{le="+Inf"} 4`,
		`edge_delay_seconds_count 4`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// A histogram that never observed anything still exposes well-formed
// series: zero buckets, _sum 0 and _count 0, not NaN and not an absent
// series.
func TestPrometheusZeroObservationHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("edge_idle_hist_seconds", "", "seconds", []float64{1})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"edge_idle_hist_seconds_sum 0",
		`edge_idle_hist_seconds_bucket{le="1"} 0`,
		`edge_idle_hist_seconds_bucket{le="+Inf"} 0`,
		"edge_idle_hist_seconds_count 0",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "NaN") {
		t.Fatalf("NaN leaked into exposition:\n%s", got)
	}
}
