package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus serializes the registry in the Prometheus text
// exposition format (version 0.0.4), metrics sorted by name. Counters and
// gauges map directly; histograms use cumulative _bucket{le="..."} series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range r.Snapshot() {
		if s.Help != "" {
			bw.WriteString("# HELP " + s.Name + " " + escapeHelp(s.Help) + "\n")
		}
		switch s.Kind {
		case KindCounter:
			bw.WriteString("# TYPE " + s.Name + " counter\n")
			bw.WriteString(s.Name + " " + formatFloat(s.Value) + "\n")
		case KindGauge:
			bw.WriteString("# TYPE " + s.Name + " gauge\n")
			bw.WriteString(s.Name + " " + formatFloat(s.Value) + "\n")
		case KindHistogram:
			bw.WriteString("# TYPE " + s.Name + " histogram\n")
			var cum int64
			for _, b := range s.Buckets {
				cum += b.Count
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				bw.WriteString(s.Name + `_bucket{le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
			}
			bw.WriteString(s.Name + "_sum " + formatFloat(s.Value) + "\n")
			bw.WriteString(s.Name + "_count " + strconv.FormatInt(s.Count, 10) + "\n")
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp applies the text-exposition escaping rules for HELP lines:
// a literal backslash becomes \\ and a newline becomes \n. Without it a
// multi-line help string would break the line-oriented format.
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace

// jsonBucket mirrors Bucket with an "inf" marker for the +Inf bound,
// which encoding/json cannot represent as a number.
type jsonBucket struct {
	UpperBound any   `json:"le"`
	Count      int64 `json:"count"`
}

type jsonMetric struct {
	Kind    Kind         `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Unit    string       `json:"unit,omitempty"`
	Value   float64      `json:"value"`
	Count   *int64       `json:"count,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

// WriteJSON serializes the registry as a JSON object mapping metric name
// to {kind, help, unit, value, count?, buckets?}. This is the `-metrics
// FILE` dump format of the CLIs; keys serialize in sorted order.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]jsonMetric{}
	for _, s := range r.Snapshot() {
		jm := jsonMetric{Kind: s.Kind, Help: s.Help, Unit: s.Unit, Value: s.Value}
		if s.Kind == KindHistogram {
			n := s.Count
			jm.Count = &n
		}
		for _, b := range s.Buckets {
			ub := any(b.UpperBound)
			if math.IsInf(b.UpperBound, 1) {
				ub = "inf"
			}
			jm.Buckets = append(jm.Buckets, jsonBucket{UpperBound: ub, Count: b.Count})
		}
		out[s.Name] = jm
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
