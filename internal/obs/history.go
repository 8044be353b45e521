package obs

// History gives the registry a past: a bounded ring of periodic
// snapshots so a dashboard (or a debugging curl) can see how rates and
// queue depths evolved, not just where they sit now. The live daemon
// drives Sample on a sim-time cadence; readers pull Recent through
// `GET /metrics/history`.

import "sync"

// Point is one registry snapshot: counters and gauges flatten to their
// value; timers and histograms contribute their sum plus a
// "<name>_count" observation count, so rates are derivable by
// differencing adjacent points.
type Point struct {
	// T is the sample time in simulated seconds since daemon start.
	T float64 `json:"t"`
	// Values maps metric name to its sampled value.
	Values map[string]float64 `json:"values"`
}

// DefaultHistoryKeep bounds the sample ring when no size is configured.
const DefaultHistoryKeep = 240

// History samples a registry into a bounded FIFO ring. Safe for
// concurrent Sample and Recent calls.
type History struct {
	reg  *Registry
	keep int

	mu     sync.Mutex
	points []Point
}

// NewHistory builds a sampler over reg keeping the last keep points
// (keep < 1 selects DefaultHistoryKeep; nil reg uses Default).
func NewHistory(reg *Registry, keep int) *History {
	if reg == nil {
		reg = Default
	}
	if keep < 1 {
		keep = DefaultHistoryKeep
	}
	return &History{reg: reg, keep: keep}
}

// Sample snapshots the registry at time t, evicting the oldest point
// once the ring is full.
func (h *History) Sample(t float64) {
	if h == nil {
		return
	}
	snaps := h.reg.Snapshot()
	vals := make(map[string]float64, len(snaps)*5/4)
	for _, s := range snaps {
		vals[s.Name] = s.Value
		if s.Kind == KindTimer || s.Kind == KindHistogram {
			vals[s.Name+"_count"] = float64(s.Count)
		}
	}
	p := Point{T: t, Values: vals}
	h.mu.Lock()
	if len(h.points) == h.keep {
		copy(h.points, h.points[1:])
		h.points[len(h.points)-1] = p
	} else {
		h.points = append(h.points, p)
	}
	h.mu.Unlock()
}

// Recent returns the retained points oldest-first. When names is
// non-empty each point's value map is filtered down to those metrics,
// keeping `/metrics/history?metrics=...` responses small.
func (h *History) Recent(names []string) []Point {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Point, len(h.points))
	if len(names) == 0 {
		copy(out, h.points)
		return out
	}
	for i, p := range h.points {
		vals := make(map[string]float64, len(names))
		for _, n := range names {
			if v, ok := p.Values[n]; ok {
				vals[n] = v
			}
		}
		out[i] = Point{T: p.T, Values: vals}
	}
	return out
}
