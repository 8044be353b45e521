package tunnel

import "satwatch/internal/obs"

// Exported metrics (see OBSERVABILITY.md). They aggregate over every
// tunnel endpoint in the process: the load harness and the satpep CLI
// run a CPE-side and a gateway-side tunnel side by side, and both count
// here.
var (
	mStreamsActive = obs.NewGauge("tunnel_streams_active",
		"Streams currently in a stream table (opened minus removed); nonzero after full drain = leak.", "")
	mStreamsReset = obs.NewCounter("tunnel_streams_reset_total",
		"Streams aborted by a RESET (sent or received).", "")
	mStreamsTimedOut = obs.NewCounter("tunnel_streams_timedout_total",
		"Streams torn down by the max-retransmit policy (dead peer).", "")
	mRetransmits = obs.NewCounter("tunnel_retransmits_total",
		"Frames retransmitted after an RTO expiry.", "")
	mWindowStalls = obs.NewCounter("tunnel_window_stalls_total",
		"Write calls that blocked at least once on a full send window.", "")
	mFramesSent = obs.NewCounter("tunnel_frames_sent_total",
		"Frames handed to the transport (first transmissions, retransmissions, ACKs).", "")
)
