package main

import "testing"

// TestOutcome pins the status and exit code of every way a run ends: a
// failed Run (say, an aborted drain) exits 1 whether or not a signal
// started the drain, and only a signal makes the run partial.
func TestOutcome(t *testing.T) {
	for _, tc := range []struct {
		interrupted, failed, degraded bool
		status                        string
		code                          int
	}{
		{false, false, false, "ok", 0},
		{false, false, true, "degraded", 0},
		{false, true, false, "degraded", 1},
		{false, true, true, "degraded", 1},
		{true, false, false, "partial", 2},
		{true, false, true, "partial", 2},
		{true, true, false, "partial", 1},
		{true, true, true, "partial", 1},
	} {
		status, code := outcome(tc.interrupted, tc.failed, tc.degraded)
		if status != tc.status || code != tc.code {
			t.Errorf("outcome(interrupted=%v, failed=%v, degraded=%v) = %q, %d; want %q, %d",
				tc.interrupted, tc.failed, tc.degraded, status, code, tc.status, tc.code)
		}
	}
}
