// Package packet implements the wire formats the probe has to understand:
// IPv4, TCP, UDP, DNS, TLS records and handshake messages, HTTP/1.x request
// heads, QUIC long-header Initials, and RTP. Each type decodes from bytes
// and encodes with an Encode method that returns its wire bytes; a header's
// Encode takes the bytes it carries and returns them behind the header.
// Only what a ground-station probe reads is kept (per the paper §2.2: the
// 5-tuple, TCP flags, seq and ack for flow tracking and RTT samples, and
// the first payload bytes for Host/SNI/DNS extraction).
package packet

import (
	"errors"
	"fmt"
)

// ErrTruncated reports input shorter than the header it should contain.
var ErrTruncated = errors.New("packet: truncated input")

// Packet is a decoded IPv4 packet: its header, the TCP or UDP header when
// the protocol is one of those, and the bytes above the transport header.
type Packet struct {
	IP      IPv4
	TCP     *TCP
	UDP     *UDP
	Payload []byte
}

// Decode parses a raw IPv4 packet. Transport payloads are kept opaque; the
// probe's DPI (package tstat) parses them on demand with the
// application-layer decoders in this package. Decode fails only when the
// network or transport header is malformed — an unparseable application
// payload is still a valid packet.
func Decode(raw []byte) (Packet, error) {
	var p Packet
	rest, err := p.IP.Decode(raw)
	if err != nil {
		return Packet{}, fmt.Errorf("ipv4: %w", err)
	}
	switch p.IP.Protocol {
	case ProtoTCP:
		p.TCP = new(TCP)
		if rest, err = p.TCP.Decode(rest); err != nil {
			return Packet{}, fmt.Errorf("tcp: %w", err)
		}
	case ProtoUDP:
		p.UDP = new(UDP)
		if rest, err = p.UDP.Decode(rest); err != nil {
			return Packet{}, fmt.Errorf("udp: %w", err)
		}
	default:
		// Unknown transport: everything after IP is payload.
	}
	p.Payload = rest
	return p, nil
}

// Tuple returns the packet's five-tuple, or ok=false when it has no TCP or
// UDP header.
func (p *Packet) Tuple() (FiveTuple, bool) {
	t := FiveTuple{Proto: p.IP.Protocol, Src: Endpoint{Addr: p.IP.Src}, Dst: Endpoint{Addr: p.IP.Dst}}
	switch {
	case p.TCP != nil:
		t.Src.Port, t.Dst.Port = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		t.Src.Port, t.Dst.Port = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return FiveTuple{}, false
	}
	return t, true
}
