package dist

import (
	"fmt"
	"time"
)

// Diurnal is a 24-hour activity profile: a relative intensity per local hour.
// It drives both how much traffic a population offers in each hour and when
// individual sessions start.
type Diurnal struct {
	weights [24]float64
	total   float64
	peak    float64
}

// NewDiurnal builds a profile from 24 non-negative hourly weights.
func NewDiurnal(hourly [24]float64) (*Diurnal, error) {
	d := &Diurnal{weights: hourly}
	for h, w := range hourly {
		if w < 0 {
			return nil, fmt.Errorf("dist: negative diurnal weight %v at hour %d", w, h)
		}
		d.total += w
		if w > d.peak {
			d.peak = w
		}
	}
	if d.total <= 0 {
		return nil, fmt.Errorf("dist: diurnal profile is all zero")
	}
	return d, nil
}

// MustDiurnal is NewDiurnal that panics on error, for static tables.
func MustDiurnal(hourly [24]float64) *Diurnal {
	d, err := NewDiurnal(hourly)
	if err != nil {
		panic(err)
	}
	return d
}

// Intensity returns the relative intensity of local hour h normalized so the
// peak hour is 1.0.
func (d *Diurnal) Intensity(h int) float64 {
	return d.weights[((h%24)+24)%24] / d.peak
}

// PeakHour returns the local hour with maximum intensity (first if tied).
func (d *Diurnal) PeakHour() int {
	best, bw := 0, -1.0
	for h, w := range d.weights {
		if w > bw {
			best, bw = h, w
		}
	}
	return best
}

// SampleTimeOfDay draws a time offset within a day, distributed according to
// the profile (uniform within the drawn hour).
func (d *Diurnal) SampleTimeOfDay(r *Rand) time.Duration {
	x := r.Float64() * d.total
	for h, w := range d.weights {
		if x < w {
			return time.Duration(h)*time.Hour + time.Duration(r.Float64()*float64(time.Hour))
		}
		x -= w
	}
	return 23*time.Hour + time.Duration(r.Float64()*float64(time.Hour))
}
