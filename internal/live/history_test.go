package live

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satwatch/internal/obs"
	"satwatch/internal/workload"
)

func summaryAt(k int64) WindowSummary {
	return WindowSummary{
		Start: time.Duration(k) * 10 * time.Minute,
		End:   time.Duration(k+1) * 10 * time.Minute,
		Flows: 10 + k, DNS: 3, BytesUp: 100, BytesDown: 1000 * (k + 1),
		BytesByCountry: map[string]int64{"IT": 600 * (k + 1), "NG": 500},
		DNSByResolver:  map[string]int64{"google": 2, "cpe": 1},
		RTTSamples:     4, RTTMeanMs: 552.5, RTTMaxMs: 750,
	}
}

func TestHistoryLogRoundTrips(t *testing.T) {
	dir := t.TempDir()
	h, prior, st, err := OpenHistory(dir)
	if err != nil {
		t.Fatalf("OpenHistory: %v", err)
	}
	if len(prior) != 0 || st.Lines != 0 || st.Skipped != 0 {
		t.Fatalf("fresh dir replayed %d windows (%+v)", len(prior), st)
	}
	for k := int64(0); k < 3; k++ {
		if err := h.Append(summaryAt(k)); err != nil {
			t.Fatalf("Append %d: %v", k, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if err := h.Append(summaryAt(9)); err == nil {
		t.Fatal("Append after Close must fail")
	}

	// A restart replays exactly what was persisted, in order.
	h2, prior, st, err := OpenHistory(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	if st.Lines != 3 || st.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want 3 clean lines", st)
	}
	if len(prior) != 3 {
		t.Fatalf("replayed %d windows, want 3", len(prior))
	}
	for k, w := range prior {
		want := summaryAt(int64(k))
		if w.Start != want.Start || w.End != want.End || w.Flows != want.Flows {
			t.Errorf("window %d = %+v, want %+v", k, w, want)
		}
		if w.BytesByCountry["IT"] != want.BytesByCountry["IT"] {
			t.Errorf("window %d lost country breakdown: %v", k, w.BytesByCountry)
		}
		if w.RTTMeanMs != want.RTTMeanMs {
			t.Errorf("window %d rtt mean = %v", k, w.RTTMeanMs)
		}
	}

	// Appends after a reopen extend the same log.
	if err := h2.Append(summaryAt(3)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	ws, st, err := ReadHistoryFile(h2.Path())
	if err != nil {
		t.Fatalf("ReadHistoryFile: %v", err)
	}
	if len(ws) != 4 || st.Lines != 4 {
		t.Fatalf("log holds %d windows after reopen+append, want 4", len(ws))
	}
}

func TestHistoryReaderTolerance(t *testing.T) {
	write := func(t *testing.T, content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), HistoryFileName)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// line produces one on-disk record via a real Append, so the cases
	// exercise the exact encoding the daemon writes.
	line := func(k int64) string {
		log, _, _, err := OpenHistory(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(summaryAt(k)); err != nil {
			t.Fatal(err)
		}
		log.Close()
		b, err := os.ReadFile(log.Path())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	cases := []struct {
		name        string
		content     string
		wantLines   int
		wantSkipped int
	}{
		{"empty file", "", 0, 0},
		{"blank lines only", "\n\n\n", 0, 0},
		{"clean log", line(0) + line(1), 2, 0},
		{"truncated tail", line(0) + strings.TrimSuffix(line(1), "}\n"), 1, 1},
		{"garbage line mid-log", line(0) + "not json at all\n" + line(1), 2, 1},
		{"garbage only", "{{{{\nxyz\n", 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, st, err := ReadHistoryFile(write(t, tc.content))
			if err != nil {
				t.Fatalf("ReadHistoryFile: %v", err)
			}
			if st.Lines != tc.wantLines || st.Skipped != tc.wantSkipped {
				t.Fatalf("stats = %+v, want %d lines %d skipped", st, tc.wantLines, tc.wantSkipped)
			}
			if len(ws) != tc.wantLines {
				t.Fatalf("read %d windows, want %d", len(ws), tc.wantLines)
			}
		})
	}

	if _, _, err := ReadHistoryFile(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("missing file must error (only corrupt content is tolerated)")
	}
}

func TestRenderHistoryTables(t *testing.T) {
	ws := []WindowSummary{summaryAt(0), summaryAt(1), summaryAt(2)}
	ws[1].Degraded = true
	ws[1].BytesByCountry = nil
	ws[1].DNSByResolver = nil
	ws[2].RTTSamples, ws[2].RTTMeanMs, ws[2].RTTMaxMs = 7, 601.37, 910.25
	ws[2].BytesByCountry["GB"] = 700
	const want = `live history: 3 windows spanning 0s → 30m0s (simulated)
  flows 33 · dns 9 · bytes up 300 down 6000 · sat RTT mean 575.3 ms max 910.2 ms (15 samples)
  1 degraded windows (breakdowns dropped while degraded)

per-country volume
key                   bytes   share
IT                     2400   58.5%
NG                     1000   24.4%
GB                      700   17.1%

per-resolver queries
key                 queries   share
google                    4   66.7%
cpe                       2   33.3%

windows
start        end               flows      dns          bytes     rtt ms
0s           10m0s                10        3           1100      552.5
10m0s        20m0s                11        3           2100      552.5 (degraded)
20m0s        30m0s                12        3           3100      601.4
`
	if got := RenderHistory(ws); got != want {
		t.Errorf("RenderHistory:\n%s\nwant:\n%s", got, want)
	}
	if empty := RenderHistory(nil); empty != "live history: no finalized windows\n" {
		t.Errorf("empty render = %q", empty)
	}
}

// The daemon trusts history.jsonl on restart: damage in it is skipped and
// counted like everywhere else, never a reason not to start.
func TestDaemonRestartSalvagesDamagedHistory(t *testing.T) {
	skippedTotal := func() float64 {
		s, _ := obs.Default.Get("netsim_rows_skipped_total")
		return s.Value
	}
	for _, tc := range []struct {
		name, damage string
	}{
		{"garbage line", "not json at all\n"},
		{"NUL tail of a power cut", `{"start_ns":12` + strings.Repeat("\x00", 5<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, _, _, err := OpenHistory(dir)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 2; k++ {
				if err := log.Append(summaryAt(k)); err != nil {
					t.Fatal(err)
				}
			}
			log.Close()
			f, err := os.OpenFile(log.Path(), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tc.damage)
			f.Close()

			before := skippedTotal()
			cfg := testConfig()
			cfg.HistoryDir = dir
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("daemon refused to start on a damaged history: %v", err)
			}
			defer p.history.Close()
			if p.ResumeFrom() != 20*time.Minute {
				t.Errorf("ResumeFrom = %s, want 20m (both intact windows replayed)", p.ResumeFrom())
			}
			if d := skippedTotal() - before; d != 1 {
				t.Errorf("netsim_rows_skipped_total moved by %v over the replay, want 1", d)
			}
		})
	}
}

// TestResumedDaemonStartsItsSourceAtTheResumeDay: a history ending at
// day 2 + 20 min resumes the source at day 2's first intent, not at
// day 0 with two days of intents to regenerate and skip.
func TestResumedDaemonStartsItsSourceAtTheResumeDay(t *testing.T) {
	dir := t.TempDir()
	log, _, _, err := OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(2 * 144); k < 2*144+2; k++ {
		if err := log.Append(summaryAt(k)); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	cfg := testConfig()
	cfg.HistoryDir = dir
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.history.Close()
	if want := 2*workload.Day + 20*time.Minute; p.ResumeFrom() != want {
		t.Fatalf("ResumeFrom = %s, want %s", p.ResumeFrom(), want)
	}
	fresh := workload.NewSource(p.sim.Customers(), p.sim.Root())
	want := fresh.Next()
	for want.Start < 2*workload.Day {
		want = fresh.Next()
	}
	if got := p.source.Next(); *got != *want {
		t.Errorf("resumed source starts with %s at %s, want day 2's first intent %s at %s",
			got.Domain, got.Start, want.Domain, want.Start)
	}
}
