package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"satwatch/internal/obs"
)

// read parses a JSONL trace stream written by Tracer.Close or a
// RotatingWriter under the salvage policy of obs.ReadLines: corrupt
// lines — the tail of a trace cut short by a kill — are skipped and
// counted.
func read(r io.Reader) ([]*Flow, obs.ReadStats, error) {
	var flows []*Flow
	st, err := obs.ReadLines(r, "trace:", "", func(line []byte) error {
		var f Flow
		err := json.Unmarshal(line, &f)
		if err == nil {
			flows = append(flows, &f)
		}
		return err
	})
	return flows, st, err
}

// Read is the strict read of one stream: it fails on the first corrupt
// line.
func Read(r io.Reader) ([]*Flow, error) {
	flows, st, err := read(r)
	if err == nil {
		err = st.First
	}
	return flows, err
}

// ReadFilesTolerant reads several JSONL trace files, concatenating
// their flows and accumulating skip counts across all of them.
func ReadFilesTolerant(paths []string) ([]*Flow, obs.ReadStats, error) {
	var all []*Flow
	var st obs.ReadStats
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, st, err
		}
		flows, s, err := read(f)
		f.Close()
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", p, err)
		}
		st.Lines += s.Lines
		st.Skipped += s.Skipped
		if st.First == nil && s.First != nil {
			st.First = fmt.Errorf("%s: %w", p, s.First)
		}
		all = append(all, flows...)
	}
	return all, st, nil
}

// ReadFiles is ReadFilesTolerant failing on the first corrupt line in
// any of the files.
func ReadFiles(paths []string) ([]*Flow, error) {
	flows, st, err := ReadFilesTolerant(paths)
	if err == nil {
		err = st.First
	}
	return flows, err
}

// ByID finds a flow by its "c<customer>-d<day>-f<index>" identity.
func ByID(flows []*Flow, id string) (*Flow, bool) {
	for _, f := range flows {
		if f.ID() == id {
			return f, true
		}
	}
	return nil, false
}

// TopK returns the k slowest flows: by TotalMS when by is empty, else by
// the summed duration of the named component. Ties break by flow
// identity so the ranking is deterministic.
func TopK(flows []*Flow, by string, k int) []*Flow {
	key := func(f *Flow) float64 {
		if by == "" {
			return f.TotalMS
		}
		return f.ComponentMS(by)
	}
	out := append([]*Flow(nil), flows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ka, kb := key(a), key(b); ka != kb {
			return ka > kb
		}
		if a.Customer != b.Customer {
			return a.Customer < b.Customer
		}
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		return a.Index < b.Index
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Waterfall renders one flow's latency decomposition as a text chart:
// the satellite-segment spans with proportional bars summing to the
// total, then the ground segment and probe measurements.
func Waterfall(f *Flow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "flow %s · beam %d · %s · hour %02d", f.ID(), f.Beam, f.Country, f.Hour)
	if f.Proto != "" {
		fmt.Fprintf(&sb, " · %s", f.Proto)
	}
	if f.Domain != "" {
		fmt.Fprintf(&sb, " · %s", f.Domain)
	}
	fmt.Fprintf(&sb, " · start +%s\n", time.Duration(f.StartMS*float64(time.Millisecond)).Round(time.Millisecond))
	if len(f.Attrs) > 0 {
		fmt.Fprintf(&sb, "  inputs: %s\n", formatAttrs(f.Attrs))
	}

	const barWidth = 28
	nameW := len("satellite RTT")
	for _, s := range f.Spans {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	scale := f.TotalMS
	if sum := f.SatSumMS(); sum > scale {
		scale = sum
	}
	for _, s := range f.Spans {
		if s.Seg != SegSatellite {
			continue
		}
		bar := ""
		pct := 0.0
		if scale > 0 {
			pct = 100 * s.DurMS / scale
			n := int(float64(barWidth)*s.DurMS/scale + 0.5)
			if n > barWidth {
				n = barWidth
			}
			bar = strings.Repeat("#", n) + strings.Repeat(".", barWidth-n)
		}
		fmt.Fprintf(&sb, "  %-*s %9.1f ms  %s %5.1f%%", nameW, s.Name, s.DurMS, bar, pct)
		if len(s.Attrs) > 0 {
			fmt.Fprintf(&sb, "  %s", formatAttrs(s.Attrs))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  %s\n", strings.Repeat("-", nameW+13+barWidth+8))
	fmt.Fprintf(&sb, "  %-*s %9.1f ms  (spans sum %.1f ms, delta %+.1f ms)\n",
		nameW, "satellite RTT", f.TotalMS, f.SatSumMS(), f.SatSumMS()-f.TotalMS)
	for _, s := range f.Spans {
		if s.Seg == SegSatellite {
			continue
		}
		tag := "ground segment"
		if s.Seg == SegProbe {
			tag = "probe-measured"
		}
		fmt.Fprintf(&sb, "  %-*s %9.1f ms  [%s]", nameW, s.Name, s.DurMS, tag)
		if len(s.Attrs) > 0 {
			fmt.Fprintf(&sb, "  %s", formatAttrs(s.Attrs))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Summary renders a one-line-per-flow ranking table for the given flows.
func Summary(flows []*Flow, by string) string {
	var sb strings.Builder
	head := "total"
	if by != "" {
		head = by
	}
	fmt.Fprintf(&sb, "%-16s %10s  %-4s %-3s %-4s %-10s %s\n", "flow", head+" ms", "beam", "cc", "hour", "proto", "domain")
	for _, f := range flows {
		v := f.TotalMS
		if by != "" {
			v = f.ComponentMS(by)
		}
		fmt.Fprintf(&sb, "%-16s %10.1f  %-4d %-3s %-4d %-10s %s\n",
			f.ID(), v, f.Beam, f.Country, f.Hour, f.Proto, f.Domain)
	}
	return sb.String()
}

// formatAttrs renders attributes as "k=v" pairs in sorted key order.
func formatAttrs(a Attrs) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		switch v := a[k].(type) {
		case float64:
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, v))
		default:
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	return strings.Join(parts, " ")
}
