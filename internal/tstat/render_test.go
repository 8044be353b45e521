package tstat

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"satwatch/internal/packet"
	"satwatch/internal/pcapio"
)

// feedCapture replays a pcap written by Capture.WritePcap through a fresh
// tracker's packet frontend, timed from epoch.
func feedCapture(t *testing.T, capture []byte, epoch time.Time) []FlowRecord {
	t.Helper()
	rd, err := pcapio.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(Config{})
	for {
		ts, raw, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.FeedPacket(ts.Sub(epoch), raw); err != nil {
			t.Fatal(err)
		}
	}
	flows, _ := tr.Flush()
	return flows
}

// bothPaths hands events to an in-process tracker and, rendered into a
// capture, to the packet frontend, and returns each path's records.
func bothPaths(t *testing.T, tuples []packet.FiveTuple, events []SegmentEvent) (inProcess, packetPath []FlowRecord) {
	t.Helper()
	tr := NewTracker(Config{})
	var c Capture
	for i, ev := range events {
		tr.Observe(tuples[i], ev)
		c.Add(tuples[i], ev)
	}
	inProcess, _ = tr.Flush()
	epoch := time.Date(2022, time.February, 7, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	if _, err := c.WritePcap(&buf, epoch); err != nil {
		t.Fatal(err)
	}
	return inProcess, feedCapture(t, buf.Bytes(), epoch)
}

// TestRenderedIdleGapSplitsUDPFlow: the in-process tracker is handed a
// flow's whole future before the clock moves, so it logs one record; the
// packet frontend's clock follows the capture, and a UDP flow silent past
// the 60 s idle timeout is logged as two records whose counts add up. The
// events are added out of time order, as a synthesizer hands them over.
func TestRenderedIdleGapSplitsUDPFlow(t *testing.T) {
	opaque := packet.Endpoint{Addr: netip.MustParseAddr("52.1.2.3"), Port: 3478}
	first := make([]byte, 64)
	first[0] = 0x01
	up, down := udpTuple(cust, opaque), udpTuple(opaque, cust)
	inProc, pkt := bothPaths(t, []packet.FiveTuple{up, down, up}, []SegmentEvent{
		{T: time.Second, Payload: 64, Packets: 1, AppData: first},
		{T: 70 * time.Second, Payload: 3600, Packets: 3},
		{T: time.Second + 20*time.Millisecond, Payload: 500, Packets: 1},
	})
	if len(inProc) != 1 || len(pkt) != 2 {
		t.Fatalf("%d in-process and %d packet-path records, want 1 and 2", len(inProc), len(pkt))
	}
	// The second record opens with the server's datagram, so it names
	// the server as its client.
	a, b := pkt[0], pkt[1]
	if a.Start != time.Second || b.Start != 70*time.Second || b.Client != opaque.Addr {
		t.Fatalf("split records %+v, %+v", a, b)
	}
	w := inProc[0]
	if a.BytesUp+b.BytesDown != w.BytesUp || a.BytesDown+b.BytesUp != w.BytesDown ||
		a.PktsUp+b.PktsDown != w.PktsUp || a.PktsDown+b.PktsUp != w.PktsDown {
		t.Fatalf("split counts %+v + %+v do not add up to %+v", a, b, w)
	}
}

// TestUnnamedUDP443IsQUICOnBothPaths: a UDP/443 flow whose datagrams no
// Initial names (a flow that died in a beam outage) is QUIC by port whether
// the probe is handed its bytes (packet path) or only their count.
func TestUnnamedUDP443IsQUICOnBothPaths(t *testing.T) {
	q443 := packet.Endpoint{Addr: netip.MustParseAddr("34.76.1.1"), Port: 443}
	tuple := udpTuple(cust, q443)
	inProc, pkt := bothPaths(t, []packet.FiveTuple{tuple, tuple}, []SegmentEvent{
		{T: 0, Payload: 300, Packets: 1},
		{T: 2 * time.Second, Payload: 300, Packets: 1},
	})
	if len(inProc) != 1 || len(pkt) != 1 || inProc[0].Proto != ProtoQUIC || pkt[0].Proto != ProtoQUIC {
		t.Fatalf("in-process %+v, packet path %+v: want one QUIC record each", inProc, pkt)
	}
}

// FuzzRenderRoundTrip: a segment event rendered into wire packets and fed
// back through a fresh tracker's FeedPacket reproduces its payload bytes,
// packet count, flags and sequence numbers.
func FuzzRenderRoundTrip(f *testing.F) {
	q, err := (&packet.DNS{ID: 7, RD: true, Questions: []packet.DNSQuestion{
		{Name: "www.example.com", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}).AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	hello := append([]byte{packet.TLSRecordHandshake, 3, 3, 0x0b, 0xb8}, make([]byte, 3000)...)
	// tcp, packets, flags, seq, ack, payload, appData
	f.Add(true, uint8(1), uint8(packet.FlagSYN), uint32(0), uint32(0), uint16(0), []byte(nil))               // handshake
	f.Add(true, uint8(3), uint8(packet.FlagACK|packet.FlagPSH), uint32(1), uint32(518), uint16(3005), hello) // server flight
	f.Add(true, uint8(10), uint8(packet.FlagACK), uint32(7301), uint32(0), uint16(14600), []byte(nil))       // bulk burst
	f.Add(false, uint8(1), uint8(0), uint32(0), uint32(0), uint16(len(q)), q)                                // DNS query
	f.Add(true, uint8(1), uint8(packet.FlagRST), uint32(0), uint32(0), uint16(0), []byte(nil))               // gateway cutoff
	f.Fuzz(func(t *testing.T, tcp bool, packets, flags uint8, seq, ack uint32, payload uint16, appData []byte) {
		ev := SegmentEvent{T: time.Second, Packets: int(packets%16) + 1, Payload: int(payload) % 60000, AppData: appData}
		tuple := udpTuple(cust, srv)
		if tcp {
			tuple = tcpTuple(cust, srv)
			// TCPFlags holds the six classic bits; the decoder drops ECE/CWR.
			ev.Flags, ev.Seq, ev.Ack = packet.TCPFlags(flags&0x3f), seq, ack
		}
		var raws [][]byte
		err := Render(tuple, ev, func(raw []byte) error {
			raws = append(raws, raw)
			return nil
		})
		if len(appData) > ev.Payload {
			if err == nil {
				t.Fatalf("%d AppData bytes in a %d-byte payload rendered", len(appData), ev.Payload)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(raws) != ev.Packets {
			t.Fatalf("%d packets, want %d", len(raws), ev.Packets)
		}
		tr := NewTracker(Config{})
		var body []byte
		next := ev.Seq
		for i, raw := range raws {
			p, err := packet.Decode(raw)
			if err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
			if got, _ := p.Tuple(); got != tuple {
				t.Fatalf("packet %d tuple %v, want %v", i, got, tuple)
			}
			if tcp {
				h := p.TCP
				if h.Flags != ev.Flags || h.Seq != next || h.Ack != ev.Ack {
					t.Fatalf("packet %d flags %v seq %d ack %d, want %v %d %d", i, h.Flags, h.Seq, h.Ack, ev.Flags, next, ev.Ack)
				}
				next += uint32(len(p.Payload))
			}
			body = append(body, p.Payload...)
			if err := tr.FeedPacket(ev.T, raw); err != nil {
				t.Fatal(err)
			}
		}
		want := append(append([]byte(nil), appData...), make([]byte, ev.Payload-len(appData))...)
		if !bytes.Equal(body, want) {
			t.Fatalf("payload %x, want AppData then zeros, %d bytes", body, ev.Payload)
		}
		flows, _ := tr.Flush()
		if len(flows) != 1 || flows[0].BytesUp != int64(ev.Payload) || flows[0].PktsUp != int64(ev.Packets) || flows[0].PktsDown != 0 {
			t.Fatalf("tracker records %+v, want one of %d bytes in %d packets", flows, ev.Payload, ev.Packets)
		}
	})
}
