package pep

import "satwatch/internal/obs"

// Relay metrics (see OBSERVABILITY.md). The simulation-side PEP model
// (internal/pepmodel) owns pep_setups_total and friends; these cover the
// real-socket proxy path.
var (
	mRelays = obs.NewCounter("pep_relays_total",
		"Proxied connections that entered the relay (CPE and gateway side combined).", "")
	mRelayErrors = obs.NewCounter("pep_relay_errors_total",
		"Relays that ended on a stream error (reset, timeout, tunnel failure) instead of clean EOFs.", "")
	mDialErrors = obs.NewCounter("pep_dial_errors_total",
		"Gateway dials toward the origin that failed after exhausting retries; the customer sees a reset.", "")
	mDialRetries = obs.NewCounter("pep_dial_retries_total",
		"Gateway re-dials toward the origin after a transient dial failure (capped exponential backoff).", "")
)
