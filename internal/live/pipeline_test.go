package live

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"satwatch/internal/obs"
)

// testConfig is a small, fast pipeline: 20 customers at 3600x speedup —
// one wall second covers one simulated hour, so trackers idle flows out
// and analytics windows finalize within a short test run.
func testConfig() Config {
	return Config{
		Customers: 20, Seed: 7,
		Speedup: 3600, Workers: 2,
		Window: 10 * time.Minute, Grace: time.Minute,
	}
}

func TestPipelineRunsAndDrainsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live run")
	}
	p, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	// Snapshot Progress from a second goroutine while the stages run, as
	// the /progress handler does: under -race this is the read that must
	// not touch generator-owned state, and the day it reports must be the
	// day of the sim time it reports.
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for ctx.Err() == nil {
			pr := p.Progress()
			if want := int(pr.SimSeconds / 86400); pr.Day != want {
				t.Errorf("Progress: day %d at sim second %.0f, want day %d", pr.Day, pr.SimSeconds, want)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if err := p.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	<-polled

	pr := p.Progress()
	if pr.Intents == 0 {
		t.Error("no intents admitted")
	}
	if pr.FlowRecords == 0 {
		t.Error("no flow records reached analytics")
	}
	if got := len(p.Analytics().Recent()); got == 0 {
		t.Error("no analytics windows finalized after drain")
	}
	// The drain contract: every queue empty.
	if q := pr.QueueDepths; q.Intents != 0 || q.Synth != 0 || q.Records != 0 {
		t.Errorf("queues not drained: intents=%d synth=%d records=%d", q.Intents, q.Synth, q.Records)
	}
	if d, reason := p.Degraded(); d {
		t.Errorf("clean run ended degraded: %s", reason)
	}
}

func TestPipelineRateMultiplierReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live run")
	}
	run := func(rate float64) int64 {
		cfg := testConfig()
		cfg.Rate = rate
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
		defer cancel()
		if err := p.Run(ctx); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Progress().Intents
	}
	base := run(1)
	double := run(2)
	if base == 0 {
		t.Fatal("baseline run admitted no intents")
	}
	// The 2x run re-paces the same intent stream, so wall-time noise
	// aside it must admit substantially more.
	if double < base*3/2 {
		t.Errorf("rate 2 admitted %d intents vs %d at rate 1: multiplier had no effect", double, base)
	}
}

func TestControlHandlerEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live run")
	}
	p, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := ControlHandler(p, obs.Default)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- p.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	// Wait until the pipeline reports ready.
	for i := 0; i < 100 && !p.Ready(); i++ {
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	post := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d while running", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "live_intents_total") {
		t.Errorf("/metrics = %d (missing live_intents_total)", code)
	}
	if code, body := get("/progress"); code != http.StatusOK || !strings.Contains(body, "sim_seconds") {
		t.Errorf("/progress = %d %q", code, body)
	}

	// Rate control round-trips.
	if code, body := post("/control/rate?multiplier=2.5"); code != http.StatusOK || !strings.Contains(body, "2.5") {
		t.Errorf("POST /control/rate = %d %q", code, body)
	}
	if p.Rate() != 2.5 {
		t.Errorf("rate after POST = %v, want 2.5", p.Rate())
	}
	if code, _ := post("/control/rate?multiplier=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus rate accepted: %d", code)
	}
	if code, _ := post("/control/rate?multiplier=-1"); code != http.StatusBadRequest {
		t.Errorf("negative rate accepted: %d", code)
	}

	// Fault injection: preset lands shifted to "now", clear removes it.
	if code, body := post("/control/faults?preset=rainfront"); code != http.StatusOK || !strings.Contains(body, `"active": true`) {
		t.Errorf("POST /control/faults = %d %q", code, body)
	}
	sched := p.Sim().Faults()
	if sched == nil || sched.Len() == 0 {
		t.Fatal("fault schedule not installed")
	}
	now := p.Clock().Now()
	for _, ev := range sched.Events {
		if ev.End < now-time.Hour {
			t.Errorf("fault event [%s, %s) entirely in the past at sim %s", ev.Start, ev.End, now)
		}
	}
	if code, _ := post("/control/faults?preset=nope"); code != http.StatusBadRequest {
		t.Errorf("unknown preset accepted: %d", code)
	}
	if code, body := post("/control/faults?preset=clear"); code != http.StatusOK || !strings.Contains(body, `"active": false`) {
		t.Errorf("clear faults = %d %q", code, body)
	}

	// Scenario hot-swap to LEO and back.
	if code, body := post("/control/scenario?constellation=leo"); code != http.StatusOK || !strings.Contains(body, "leo") {
		t.Errorf("POST /control/scenario = %d %q", code, body)
	}
	if p.Sim().ScenarioName() != "leo" {
		t.Errorf("scenario after swap = %q", p.Sim().ScenarioName())
	}
	if code, _ := post("/control/scenario?constellation=marsnet"); code != http.StatusBadRequest {
		t.Errorf("unknown constellation accepted: %d", code)
	}

	// Analytics endpoint serves valid JSON.
	code, body := get("/analytics")
	if code != http.StatusOK {
		t.Fatalf("/analytics = %d", code)
	}
	var payload struct {
		Windows []WindowSummary `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/analytics not JSON: %v\n%s", err, body)
	}
}

// TestSoakShort drives the full soak harness briefly: the run must
// admit work, survive the overload phase, drain clean and pass its own
// leak checks.
func TestSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	cfg := testConfig()
	rep, err := Soak(cfg, 3*time.Second)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("soak failed: %v %s", rep.Failures, rep.DrainErr)
	}
	if rep.Progress.FlowRecords == 0 {
		t.Error("soak run produced no flow records")
	}
}
