package main

import "testing"

// TestOutcome pins the status and exit code of every way a run ends: a
// failed Run (a stage failure, an aborted drain) exits 1 whether or not
// a signal started the drain, and only a signal makes the run partial.
func TestOutcome(t *testing.T) {
	for _, tc := range []struct {
		interrupted, failed bool
		status              string
		code                int
	}{
		{false, false, "ok", 0},
		{false, true, "failed", 1},
		{true, false, "partial", 2},
		{true, true, "partial", 1},
	} {
		status, code := outcome(tc.interrupted, tc.failed)
		if status != tc.status || code != tc.code {
			t.Errorf("outcome(interrupted=%v, failed=%v) = %q, %d; want %q, %d",
				tc.interrupted, tc.failed, status, code, tc.status, tc.code)
		}
	}
}
