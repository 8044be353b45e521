// Package tstat is the probe: a passive flow meter in the spirit of Tstat
// (§2.2 of the paper) that turns an observed packet stream into rich
// per-flow records. It tracks 5-tuple flows in both directions, measures
// the ground-segment RTT from TCP data→ACK pairs, estimates the
// satellite-segment RTT from the TLS ServerHello → ClientKeyExchange gap
// (the paper's trick for seeing through the PEP), runs DPI to name the
// server (HTTP Host, TLS SNI, QUIC SNI, DNS), logs DNS transactions, and
// anonymizes customer addresses with Crypto-PAn before anything is stored.
//
// The tracker consumes SegmentEvents from two frontends: the packet
// frontend (FeedPacket) decodes raw IPv4 packets (live capture or pcap
// replay), and the simulator fast path emits them directly, aggregating
// long bulk transfers into burst events whose byte/packet counters stay
// exact. Render is the packet frontend's inverse: it turns an event back
// into its wire packets, which is how a simulated run's capture is written
// and how the two frontends are held to the same records.
package tstat

import (
	"time"

	"satwatch/internal/packet"
)

// Direction of a segment relative to the flow's initiator ("client",
// which at this vantage point is always the customer side).
type Direction uint8

// Flow directions.
const (
	ClientToServer Direction = iota
	ServerToClient
)

func (d Direction) String() string {
	if d == ServerToClient {
		return "s2c"
	}
	return "c2s"
}

// SegmentEvent is one observed wire event. An event normally corresponds
// to one packet; the simulator's fast path may aggregate a bulk burst into
// a single event with Packets > 1 — byte and packet accounting remain
// exact, only per-packet timestamps inside the burst are coalesced.
type SegmentEvent struct {
	// T is the capture timestamp as an offset from the trace epoch.
	T time.Duration
	// Dir is the segment's direction relative to the initiator.
	Dir Direction
	// Payload is the transport payload bytes carried by the event.
	Payload int
	// WireLen is the total on-the-wire bytes of the event (headers
	// included, summed over aggregated packets).
	WireLen int
	// Packets is how many wire packets the event represents (≥1).
	Packets int
	// Flags carries TCP flags (zero for UDP).
	Flags packet.TCPFlags
	// Seq is the TCP sequence number of the first payload byte; Ack the
	// cumulative acknowledgement carried by this segment. Zero for UDP.
	Seq, Ack uint32
	// AppData holds the payload bytes available for DPI. The frontends
	// populate it for the segments that can carry protocol fingerprints
	// (handshakes, first data); bulk events leave it nil.
	AppData []byte
}
