package live

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"satwatch/internal/faults"
	"satwatch/internal/obs"
	"satwatch/internal/trace"
)

// ControlHandler grows the batch tools' -debug-addr surface (/metrics,
// /progress, /debug/pprof) into the daemon's control plane:
//
//   - GET  /healthz            200 while no stage is stalled, else 503
//   - GET  /readyz             200 while running and not draining
//   - GET  /analytics          finalized window summaries, oldest first
//   - GET  /trace/recent       recent traced flows, newest first (?limit=)
//   - GET  /metrics/history    registry time series (?metrics=a,b filter)
//   - GET  /dashboard          embedded single-file HTML observatory
//   - GET|POST /control/rate     read / set the workload multiplier
//   - GET|POST /control/faults   read / set the fault schedule (presets)
//   - GET|POST /control/scenario read / hot-swap the constellation
//
// Read-only endpoints reject non-GET methods, set Cache-Control:
// no-store (the payloads are live state) and count encode failures in
// live_control_encode_errors_total. Mutations take query parameters
// (?multiplier=, ?preset=, ?constellation=) so they are curl-able. See
// OBSERVABILITY.md for the endpoint table.
func ControlHandler(p *Pipeline, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.DebugHandler(reg, func() any { return p.Progress() }))

	// encode writes v as JSON, counting (not masking) encode failures —
	// by the time Encode fails the status line is gone anyway.
	encode := func(w http.ResponseWriter, indent bool, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		if indent {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(v); err != nil {
			mControlEncodeErrors.Inc()
		}
	}
	// readOnly wraps a GET-only live-state handler: non-GET is rejected
	// and responses are marked uncacheable.
	readOnly := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Cache-Control", "no-store")
			h(w, r)
		}
	}

	mux.HandleFunc("/healthz", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		if stalled := p.Stalled(); len(stalled) > 0 {
			http.Error(w, fmt.Sprintf("stalled stages: %v", stalled), http.StatusServiceUnavailable)
			return
		}
		degraded, reason := p.Degraded()
		encode(w, false, map[string]any{
			"status": "ok", "degraded": degraded, "reason": reason,
		})
	}))

	mux.HandleFunc("/readyz", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		if !p.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}))

	mux.HandleFunc("/analytics", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		encode(w, true, map[string]any{
			"watermark_seconds":   p.Analytics().Watermark().Seconds(),
			"resume_from_seconds": p.ResumeFrom().Seconds(),
			"windows":             p.Analytics().Recent(),
		})
	}))

	mux.HandleFunc("/trace/recent", readOnly(func(w http.ResponseWriter, r *http.Request) {
		limit := 50
		if raw := r.URL.Query().Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", raw), http.StatusBadRequest)
				return
			}
			limit = n
		}
		flows := p.Tracing().Recent(limit)
		if flows == nil {
			flows = []*trace.Flow{} // keep the field an array, never null
		}
		encode(w, true, map[string]any{
			"sample_n": p.Tracing().SampleN(),
			"total":    p.Tracing().Total(),
			"flows":    flows,
		})
	}))

	mux.HandleFunc("/metrics/history", readOnly(func(w http.ResponseWriter, r *http.Request) {
		var names []string
		if raw := r.URL.Query().Get("metrics"); raw != "" {
			for _, n := range strings.Split(raw, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
		points := p.MetricsHistory().Recent(names)
		if points == nil {
			points = []obs.Point{}
		}
		encode(w, false, map[string]any{
			"every_seconds": p.cfg.MetricsEvery.Seconds(),
			"points":        points,
		})
	}))

	mux.HandleFunc("/dashboard", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML)
	}))

	mux.HandleFunc("/control/rate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			raw := r.URL.Query().Get("multiplier")
			m, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad multiplier %q: %v", raw, err), http.StatusBadRequest)
				return
			}
			if err := p.SetRate(m); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		encode(w, false, map[string]float64{"multiplier": p.Rate()})
	})

	mux.HandleFunc("/control/faults", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			preset := r.URL.Query().Get("preset")
			if preset == "" {
				http.Error(w, "missing ?preset= (a faults preset name, or \"clear\")", http.StatusBadRequest)
				return
			}
			if preset == "clear" {
				p.Sim().SetFaults(nil)
			} else {
				sched, err := faults.Preset(preset, 1, p.cfg.Seed)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				// Presets are authored against day 0; shift them to start
				// at the current simulated instant so an injected fault
				// bites now, not days in the past.
				p.Sim().SetFaults(shiftSchedule(sched, p.Clock().Now()))
			}
		}
		sched := p.Sim().Faults()
		if sched == nil {
			encode(w, true, map[string]any{"active": false})
			return
		}
		encode(w, true, map[string]any{"active": true, "schedule": sched})
	})

	mux.HandleFunc("/control/scenario", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			con := r.URL.Query().Get("constellation")
			if con == "" {
				http.Error(w, "missing ?constellation=", http.StatusBadRequest)
				return
			}
			if err := p.Sim().SwapScenario(con); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		encode(w, false, map[string]string{"constellation": p.Sim().ScenarioName()})
	})

	return mux
}

// shiftSchedule rebases every event of s by offset (fault presets start
// at the epoch; live injection wants them to start now).
func shiftSchedule(s *faults.Schedule, offset time.Duration) *faults.Schedule {
	if s == nil {
		return nil
	}
	out := &faults.Schedule{Name: s.Name, Seed: s.Seed, Events: make([]faults.Event, len(s.Events))}
	copy(out.Events, s.Events)
	for i := range out.Events {
		out.Events[i].Start += offset
		out.Events[i].End += offset
	}
	return out
}
