// Package tcpmodel computes the timing of a TCP transfer between the
// ground-station PEP and an internet server: handshake, slow start growing
// from the initial window, and the steady phase clamped by the bottleneck
// rate (the PEP's per-user buffer back-pressures the download to the
// customer's delivery rate, §2.1/§6.5). The probe's throughput figures
// (Figure 11) are measured over the segment timelines this model produces.
package tcpmodel

import (
	"time"
)

// MSS is the segment payload size used throughout the simulator.
const MSS = 1460

// Params describe one transfer.
type Params struct {
	// RTT is the round trip between the ground station and the server.
	RTT time.Duration
	// BottleneckBps is the delivery rate toward the customer in bytes/s
	// (plan shaping x beam congestion x terminal limits). The PEP buffer
	// clamps the server-side transfer to this rate once full.
	BottleneckBps float64
	// InitialWindow is the initial congestion window in segments.
	InitialWindow int
	// PEPBuffer is the PEP's per-user buffer in bytes; until it fills,
	// slow start runs at path speed regardless of the bottleneck.
	PEPBuffer int64
}

// Timeline is the computed shape of one transfer.
type Timeline struct {
	// HandshakeDone is when the three-way handshake completes (one RTT
	// after the SYN leaves).
	HandshakeDone time.Duration
	// FirstData is when the first data segment is observed.
	FirstData time.Duration
	// LastData is when the last data segment is observed.
	LastData time.Duration
	// Rounds is the number of slow-start rounds the transfer used.
	Rounds int
	// Segments is the total number of MSS-sized segments.
	Segments int64
}

// Compute produces the transfer timeline for n payload bytes.
//
// Slow start doubles the per-RTT window from InitialWindow until either the
// window reaches the bandwidth-delay product of the bottleneck (from then
// on delivery is rate-limited) or the PEP buffer fills (same effect: the
// ground station can no longer pull faster than it drains). This yields the
// classic short-flow behaviour — small flows never reach the plan rate,
// which is why the paper restricts Figure 11 to ≥10 MB flows.
func Compute(n int64, p Params) Timeline {
	tl := Timeline{}
	if p.InitialWindow <= 0 {
		p.InitialWindow = 10
	}
	if p.RTT <= 0 {
		p.RTT = time.Millisecond
	}
	tl.HandshakeDone = p.RTT
	tl.FirstData = p.RTT + p.RTT/2 // request travels half an RTT after ACK
	if n <= 0 {
		tl.LastData = tl.FirstData
		return tl
	}
	tl.Segments = (n + MSS - 1) / MSS

	// Window (in segments per RTT) that saturates the bottleneck.
	satWindow := p.BottleneckBps * p.RTT.Seconds() / MSS
	if satWindow < 1 {
		satWindow = 1
	}

	remaining := tl.Segments
	now := tl.FirstData
	window := float64(p.InitialWindow)
	buffered := int64(0)
	for remaining > 0 {
		tl.Rounds++
		send := int64(window)
		if send < 1 {
			send = 1
		}
		if send > remaining {
			send = remaining
		}
		remaining -= send
		if remaining == 0 {
			// The last round's segments stream out within the round,
			// paced by the bottleneck once past saturation.
			tail := time.Duration(float64(send*MSS) / p.BottleneckBps * float64(time.Second))
			if window < satWindow && tail > p.RTT {
				tail = p.RTT
			}
			now += tail
			break
		}
		now += p.RTT
		buffered += send * MSS
		if window >= satWindow || (p.PEPBuffer > 0 && buffered >= p.PEPBuffer) {
			// Rate-limited steady phase: everything left drains at the
			// bottleneck rate.
			now += time.Duration(float64(remaining*MSS) / p.BottleneckBps * float64(time.Second))
			remaining = 0
			break
		}
		window *= 2
		if window > satWindow {
			window = satWindow
		}
	}
	tl.LastData = now
	return tl
}
