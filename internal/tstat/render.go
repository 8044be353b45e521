package tstat

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"satwatch/internal/packet"
	"satwatch/internal/pcapio"
)

// Render is the inverse of Tracker.FeedPacket: it expands one segment
// event, sent on tuple, into the wire packets a tap at the vantage point
// would have captured and hands each to emit. An event becomes exactly
// ev.Packets IPv4 TCP or UDP packets (one when Packets is below one, as the
// tracker counts it). The payload is split exactly: the first packet
// carries AppData whole, then every packet an even share of the remaining
// Payload-len(AppData) bytes, zero-filled. Every TCP packet carries Flags
// and Ack, and its Seq advances by the payload of the packets before it.
func Render(tuple packet.FiveTuple, ev SegmentEvent, emit func(raw []byte) error) error {
	n := max(ev.Packets, 1)
	rest := ev.Payload - len(ev.AppData)
	if rest < 0 {
		return fmt.Errorf("tstat: render: %d AppData bytes exceed the %d-byte payload", len(ev.AppData), ev.Payload)
	}
	if tuple.Proto != packet.ProtoTCP && tuple.Proto != packet.ProtoUDP {
		return fmt.Errorf("tstat: render: transport protocol %d", tuple.Proto)
	}
	ip := &packet.IPv4{TTL: 64, Protocol: tuple.Proto, Src: tuple.Src.Addr, Dst: tuple.Dst.Addr}
	fill := make([]byte, rest/n+1)
	seq := ev.Seq
	for i := 0; i < n; i++ {
		payload := fill[:rest/n]
		if i < rest%n {
			payload = fill[:rest/n+1]
		}
		if i == 0 && len(ev.AppData) > 0 {
			payload = append(slices.Clip(ev.AppData), payload...)
		}
		var raw []byte
		var err error
		if tuple.Proto == packet.ProtoTCP {
			tcp := packet.TCP{SrcPort: tuple.Src.Port, DstPort: tuple.Dst.Port,
				Seq: seq, Ack: ev.Ack, Flags: ev.Flags, Window: 65535}
			raw = tcp.Encode(payload)
			seq += uint32(len(payload))
		} else {
			udp := packet.UDP{SrcPort: tuple.Src.Port, DstPort: tuple.Dst.Port}
			raw, err = udp.Encode(payload)
		}
		if err == nil {
			raw, err = ip.Encode(raw)
		}
		if err != nil {
			return fmt.Errorf("tstat: render: %w", err)
		}
		if err := emit(raw); err != nil {
			return err
		}
	}
	return nil
}

// Capture collects segment events and writes them as one pcap.
type Capture struct {
	events []capturedEvent
}

type capturedEvent struct {
	tuple packet.FiveTuple
	ev    SegmentEvent
}

// Add files ev, sent on tuple. The capture keeps ev.AppData: the caller
// must not modify it before WritePcap.
func (c *Capture) Add(tuple packet.FiveTuple, ev SegmentEvent) {
	c.events = append(c.events, capturedEvent{tuple, ev})
}

// WritePcap renders the capture's events (Render) to w as a LINKTYPE_RAW
// pcap, each packet stamped epoch plus its event's time, and returns the
// packets written. A synthesizer hands over a flow's whole future at once,
// so the events are put in time order first; events of equal time keep
// the order they were added in.
func (c *Capture) WritePcap(w io.Writer, epoch time.Time) (int, error) {
	slices.SortStableFunc(c.events, func(a, b capturedEvent) int { return cmp.Compare(a.ev.T, b.ev.T) })
	pw := pcapio.NewWriter(w, pcapio.LinkTypeRaw)
	packets := 0
	for i := range c.events {
		e := &c.events[i]
		ts := epoch.Add(e.ev.T)
		err := Render(e.tuple, e.ev, func(raw []byte) error {
			packets++
			return pw.WritePacket(ts, raw)
		})
		if err != nil {
			return packets, err
		}
	}
	return packets, pw.Flush()
}
