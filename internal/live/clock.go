package live

import "time"

// Clock maps wall time onto simulated time at a fixed speedup: one wall
// second advances Speedup simulated seconds. The anchor is set once at
// Start, so Now is a pure read — goroutine-safe without locks.
type Clock struct {
	speedup float64
	anchor  time.Time
	base    time.Duration
}

// NewClock builds a clock that starts simulated time at base and runs at
// speedup simulated seconds per wall second (<= 0 → 1).
func NewClock(speedup float64, base time.Duration) *Clock {
	if speedup <= 0 {
		speedup = 1
	}
	return &Clock{speedup: speedup, anchor: time.Now(), base: base}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration {
	wall := time.Since(c.anchor)
	return c.base + time.Duration(float64(wall)*c.speedup)
}

// WallUntil returns the wall-clock duration until the simulated instant
// simT; <= 0 when simT has already passed.
func (c *Clock) WallUntil(simT time.Duration) time.Duration {
	return time.Duration(float64(simT-c.Now()) / c.speedup)
}
