package live

// Window-history persistence: finalized WindowSummary values append to
// a crash-tolerant JSONL log so a restarted daemon serves the same
// /analytics history it died with, and satreport -live-history can
// replay a log offline. Each summary is one line written in a single
// O_APPEND write followed by Sync — a crash corrupts at most the final
// line, which the reader skips and counts under the salvage policy of
// obs.ReadLines, the same one satreport -from reads under.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"satwatch/internal/obs"
)

// HistoryFileName is the log file inside a -history directory.
const HistoryFileName = "history.jsonl"

// HistoryLog is the append destination for finalized windows. Safe for
// concurrent use (finalization is serialized anyway, but the control
// plane may race a Close).
type HistoryLog struct {
	path string

	mu sync.Mutex
	f  *os.File
}

// OpenHistory opens (creating dir if needed) the history log, first
// replaying whatever the log already holds: the returned summaries are
// the previous incarnations' finalized windows, oldest first, and stats
// counts any corrupt lines skipped.
func OpenHistory(dir string) (*HistoryLog, []WindowSummary, obs.ReadStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, obs.ReadStats{}, fmt.Errorf("live: history dir: %w", err)
	}
	path := filepath.Join(dir, HistoryFileName)
	var prior []WindowSummary
	var st obs.ReadStats
	if _, err := os.Stat(path); err == nil {
		prior, st, err = ReadHistoryFile(path)
		if err != nil {
			return nil, nil, st, err
		}
	}
	f, _, err := obs.OpenAppend(path)
	if err != nil {
		return nil, nil, st, fmt.Errorf("live: open history: %w", err)
	}
	return &HistoryLog{path: path, f: f}, prior, st, nil
}

// Path returns the log file path.
func (h *HistoryLog) Path() string {
	if h == nil {
		return ""
	}
	return h.path
}

// Append writes one finalized window as a JSONL line and syncs. Nil-safe.
func (h *HistoryLog) Append(s WindowSummary) error {
	if h == nil {
		return nil
	}
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("live: encode window: %w", err)
	}
	b = append(b, '\n')
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return fmt.Errorf("live: history log closed")
	}
	if _, err := h.f.Write(b); err != nil {
		return fmt.Errorf("live: append window: %w", err)
	}
	if err := h.f.Sync(); err != nil {
		return fmt.Errorf("live: sync history: %w", err)
	}
	return nil
}

// Close closes the log. Nil-safe, idempotent.
func (h *HistoryLog) Close() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return nil
	}
	err := h.f.Close()
	h.f = nil
	return err
}

// ReadHistoryFile replays a history log tolerantly: corrupt lines (a
// truncated tail after a crash, editor garbage) are skipped and
// counted. Summaries return in file order, which is finalization order.
func ReadHistoryFile(path string) ([]WindowSummary, obs.ReadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, obs.ReadStats{}, err
	}
	defer f.Close()
	var out []WindowSummary
	st, err := obs.ReadLines(f, "live: history", "", func(line []byte) error {
		var s WindowSummary
		err := json.Unmarshal(line, &s)
		if err == nil {
			out = append(out, s)
		}
		return err
	})
	return out, st, err
}

// RenderHistory folds a replayed window list into the standard report
// tables: run span, totals, per-country volume and per-resolver query
// breakdowns (satreport -live-history).
func RenderHistory(ws []WindowSummary) string {
	var sb strings.Builder
	if len(ws) == 0 {
		sb.WriteString("live history: no finalized windows\n")
		return sb.String()
	}
	var flows, dns, up, down, rttN int64
	var rttSum, rttMax float64
	degraded := 0
	byCountry := map[string]int64{}
	byResolver := map[string]int64{}
	start, end := ws[0].Start, ws[0].End
	for _, w := range ws {
		if w.Start < start {
			start = w.Start
		}
		if w.End > end {
			end = w.End
		}
		flows += w.Flows
		dns += w.DNS
		up += w.BytesUp
		down += w.BytesDown
		rttN += w.RTTSamples
		rttSum += w.RTTMeanMs * float64(w.RTTSamples)
		if w.RTTMaxMs > rttMax {
			rttMax = w.RTTMaxMs
		}
		if w.Degraded {
			degraded++
		}
		for c, b := range w.BytesByCountry {
			byCountry[c] += b
		}
		for r, n := range w.DNSByResolver {
			byResolver[r] += n
		}
	}
	fmt.Fprintf(&sb, "live history: %d windows spanning %s → %s (simulated)\n",
		len(ws), fmtDur(start), fmtDur(end))
	fmt.Fprintf(&sb, "  flows %d · dns %d · bytes up %d down %d", flows, dns, up, down)
	if rttN > 0 {
		fmt.Fprintf(&sb, " · sat RTT mean %.1f ms max %.1f ms (%d samples)", rttSum/float64(rttN), rttMax, rttN)
	}
	sb.WriteByte('\n')
	if degraded > 0 {
		fmt.Fprintf(&sb, "  %d degraded windows (breakdowns dropped while degraded)\n", degraded)
	}

	writeTable := func(title, valHead string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		type row struct {
			key string
			v   int64
		}
		rows := make([]row, 0, len(m))
		var total int64
		for k, v := range m {
			rows = append(rows, row{k, v})
			total += v
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].key < rows[j].key
		})
		fmt.Fprintf(&sb, "\n%s\n%-12s %14s %7s\n", title, "key", valHead, "share")
		for _, r := range rows {
			share := 0.0
			if total > 0 {
				share = 100 * float64(r.v) / float64(total)
			}
			fmt.Fprintf(&sb, "%-12s %14d %6.1f%%\n", r.key, r.v, share)
		}
	}
	writeTable("per-country volume", "bytes", byCountry)
	writeTable("per-resolver queries", "queries", byResolver)

	fmt.Fprintf(&sb, "\nwindows\n%-12s %-12s %10s %8s %14s %10s\n",
		"start", "end", "flows", "dns", "bytes", "rtt ms")
	for _, w := range ws {
		rtt := "-"
		if w.RTTSamples > 0 {
			rtt = fmt.Sprintf("%.1f", w.RTTMeanMs)
		}
		mark := ""
		if w.Degraded {
			mark = " (degraded)"
		}
		fmt.Fprintf(&sb, "%-12s %-12s %10d %8d %14d %10s%s\n",
			fmtDur(w.Start), fmtDur(w.End), w.Flows, w.DNS, w.BytesUp+w.BytesDown, rtt, mark)
	}
	return sb.String()
}

func fmtDur(d time.Duration) string { return d.Round(time.Second).String() }
