package obs

import (
	"testing"
	"time"
)

func TestHistorySamplesAndEvicts(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hist_flows_total", "", "flows")
	g := reg.Gauge("hist_depth", "", "items")

	h := NewHistory(reg, 3)
	for i := 1; i <= 5; i++ {
		c.Inc()
		g.Set(float64(i * 10))
		h.Sample(float64(i))
	}
	pts := h.Recent(nil)
	if len(pts) != 3 {
		t.Fatalf("ring holds %d points, want keep=3", len(pts))
	}
	// Oldest-first: samples 3, 4, 5 survive.
	for i, wantT := range []float64{3, 4, 5} {
		p := pts[i]
		if p.T != wantT {
			t.Fatalf("point %d at t=%v, want %v", i, p.T, wantT)
		}
		if p.Values["hist_flows_total"] != wantT {
			t.Errorf("counter at t=%v sampled %v", wantT, p.Values["hist_flows_total"])
		}
		if p.Values["hist_depth"] != wantT*10 {
			t.Errorf("gauge at t=%v sampled %v", wantT, p.Values["hist_depth"])
		}
	}
}

func TestHistoryFlattensTimersAndFilters(t *testing.T) {
	reg := NewRegistry()
	tm := reg.Timer("hist_rtt_seconds", "")
	reg.Counter("hist_other_total", "", "x").Inc()
	tm.Observe(500 * time.Millisecond)
	tm.Observe(600 * time.Millisecond)

	h := NewHistory(reg, 8)
	h.Sample(1)

	pts := h.Recent(nil)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	v := pts[0].Values
	if v["hist_rtt_seconds_count"] != 2 {
		t.Errorf("timer count = %v, want 2", v["hist_rtt_seconds_count"])
	}
	if sum := v["hist_rtt_seconds"]; sum < 1.05 || sum > 1.15 {
		t.Errorf("timer sum = %v, want ~1.1", sum)
	}

	// Name filtering trims each point's map; unknown names are ignored.
	got := h.Recent([]string{"hist_rtt_seconds_count", "no_such_metric"})
	if len(got) != 1 {
		t.Fatalf("filtered points = %d", len(got))
	}
	fv := got[0].Values
	if len(fv) != 1 || fv["hist_rtt_seconds_count"] != 2 {
		t.Errorf("filtered values = %v", fv)
	}
}

func TestHistoryNilSafeAndDefaults(t *testing.T) {
	var h *History
	h.Sample(1)
	if h.Recent(nil) != nil {
		t.Error("nil History not inert")
	}
	d := NewHistory(nil, 0)
	if d.keep != DefaultHistoryKeep {
		t.Errorf("keep default = %d, want %d", d.keep, DefaultHistoryKeep)
	}
	if d.reg != Default {
		t.Error("nil registry must select Default")
	}
}
