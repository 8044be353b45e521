package live

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"satwatch/internal/obs"
	"satwatch/internal/trace"
)

// newTestHandler builds a pipeline (not running — the read-only surface
// must serve coherent state before Run) with tracing enabled.
func newTestHandler(t *testing.T) (*Pipeline, http.Handler) {
	t.Helper()
	cfg := testConfig()
	cfg.TraceSample = 1
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p, ControlHandler(p, obs.Default)
}

func do(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

func TestReadOnlyEndpointsRejectNonGET(t *testing.T) {
	_, h := newTestHandler(t)
	paths := []string{"/healthz", "/readyz", "/analytics", "/trace/recent", "/metrics/history", "/dashboard"}
	for _, path := range paths {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			rec := do(h, method, path)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s Allow = %q", method, path, allow)
			}
		}
		rec := do(h, http.MethodGet, path)
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", path, cc)
		}
		// HEAD rides along with GET on a read-only surface.
		if rec := do(h, http.MethodHead, path); rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("HEAD %s rejected", path)
		}
	}
}

func TestTraceRecentEndpoint(t *testing.T) {
	p, h := newTestHandler(t)

	// Empty ring: the flows field must be an array, never null.
	rec := do(h, http.MethodGet, "/trace/recent")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace/recent = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"flows": []`) {
		t.Fatalf("empty ring must serialize as []: %s", rec.Body.String())
	}

	// Publish a few flows and read them back newest-first.
	for i := 0; i < 4; i++ {
		f := &trace.Flow{Customer: 1, Index: i}
		f.SetMeta(0, "IT", 9, "TCP/HTTPS", "x.test", time.Duration(i)*time.Second)
		f.Span(trace.SpanLiveSynth, trace.SegProbe, time.Millisecond, nil)
		p.Tracing().Publish(f)
	}
	rec = do(h, http.MethodGet, "/trace/recent?limit=2")
	var payload struct {
		SampleN int           `json:"sample_n"`
		Total   uint64        `json:"total"`
		Flows   []*trace.Flow `json:"flows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/trace/recent not JSON: %v", err)
	}
	if payload.SampleN != 1 || payload.Total != 4 {
		t.Errorf("sample_n=%d total=%d, want 1, 4", payload.SampleN, payload.Total)
	}
	if len(payload.Flows) != 2 || payload.Flows[0].Index != 3 {
		t.Errorf("limit=2 returned %d flows, first index %d", len(payload.Flows), payload.Flows[0].Index)
	}

	if rec := do(h, http.MethodGet, "/trace/recent?limit=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit accepted: %d", rec.Code)
	}
	if rec := do(h, http.MethodGet, "/trace/recent?limit=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("negative limit accepted: %d", rec.Code)
	}
}

func TestMetricsHistoryEndpoint(t *testing.T) {
	p, h := newTestHandler(t)

	rec := do(h, http.MethodGet, "/metrics/history")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/history = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"points":[]`) {
		t.Fatalf("empty history must serialize as []: %s", rec.Body.String())
	}

	p.MetricsHistory().Sample(30)
	p.MetricsHistory().Sample(60)
	rec = do(h, http.MethodGet, "/metrics/history?metrics=live_flow_records_total,live_q_synth_depth")
	var payload struct {
		EverySeconds float64     `json:"every_seconds"`
		Points       []obs.Point `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/metrics/history not JSON: %v", err)
	}
	if payload.EverySeconds != 30 {
		t.Errorf("every_seconds = %v, want default 30", payload.EverySeconds)
	}
	if len(payload.Points) != 2 || payload.Points[0].T != 30 {
		t.Fatalf("points = %+v", payload.Points)
	}
	for _, p := range payload.Points {
		for name := range p.Values {
			if name != "live_flow_records_total" && name != "live_q_synth_depth" {
				t.Errorf("?metrics filter leaked %q", name)
			}
		}
	}
}

func TestDashboardServedSelfContained(t *testing.T) {
	_, h := newTestHandler(t)
	rec := do(h, http.MethodGet, "/dashboard")
	if rec.Code != http.StatusOK {
		t.Fatalf("/dashboard = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if len(body) < 1024 || !strings.Contains(body, "<!doctype html>") {
		t.Fatalf("dashboard body implausibly small (%d bytes) or not HTML", len(body))
	}
	// The observatory must work air-gapped: no external fetches of any
	// kind — every script, style and font ships inline.
	if m := regexp.MustCompile(`(?:src|href)\s*=\s*["']?https?://`).FindString(body); m != "" {
		t.Errorf("dashboard references an external resource: %q", m)
	}
	if strings.Contains(body, "cdn.") || strings.Contains(body, "unpkg") || strings.Contains(body, "jsdelivr") {
		t.Error("dashboard references a CDN")
	}
	// It polls the endpoints this handler serves.
	for _, ep := range []string{"/analytics", "/metrics/history", "/trace/recent", "/progress"} {
		if !strings.Contains(body, ep) {
			t.Errorf("dashboard does not poll %s", ep)
		}
	}
}

func TestAnalyticsEndpointReportsResumePoint(t *testing.T) {
	dir := t.TempDir()
	seed := []WindowSummary{
		{Start: 0, End: 10 * time.Minute, Flows: 3},
		{Start: 10 * time.Minute, End: 20 * time.Minute, Flows: 4},
	}
	log, _, _, err := OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seed {
		if err := log.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	cfg := testConfig()
	cfg.HistoryDir = dir
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New with history: %v", err)
	}
	if p.ResumeFrom() != 20*time.Minute {
		t.Fatalf("ResumeFrom = %s, want 20m", p.ResumeFrom())
	}
	h := ControlHandler(p, obs.Default)
	rec := do(h, http.MethodGet, "/analytics")
	var payload struct {
		ResumeFromSeconds float64         `json:"resume_from_seconds"`
		Windows           []WindowSummary `json:"windows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/analytics not JSON: %v", err)
	}
	if payload.ResumeFromSeconds != 1200 {
		t.Errorf("resume_from_seconds = %v, want 1200", payload.ResumeFromSeconds)
	}
	if len(payload.Windows) != 2 || payload.Windows[1].Flows != 4 {
		t.Errorf("replayed windows = %+v", payload.Windows)
	}
}
