package tstat

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"satwatch/internal/cryptopan"
	"satwatch/internal/packet"
)

// TestObserveAfterEvictionStartsFreshFlow: the tracker's memo of the last
// flow it reached must not outlive that flow's eviction. A tuple observed
// again after its flow was swept lands on a fresh flow and a second record.
func TestObserveAfterEvictionStartsFreshFlow(t *testing.T) {
	r := newRecorder()
	srv := packet.Endpoint{Addr: netip.MustParseAddr("5.5.5.5"), Port: 8000}
	tuple := udpTuple(cust, srv)
	r.tr.Observe(tuple, SegmentEvent{T: 0, Payload: 100, Packets: 1})
	r.tr.AdvanceTime(2 * time.Minute)
	if len(r.flows) != 1 || r.tr.Active() != 0 {
		t.Fatalf("%d records, %d active after the idle timeout; want 1, 0", len(r.flows), r.tr.Active())
	}
	r.tr.Observe(tuple.Reverse(), SegmentEvent{T: 2*time.Minute + time.Second, Payload: 300, Packets: 1})
	if r.tr.Active() != 1 {
		t.Fatalf("%d active flows after the tuple recurred, want 1", r.tr.Active())
	}
	r.tr.Flush()
	if len(r.flows) != 2 {
		t.Fatalf("%d records, want 2", len(r.flows))
	}
	if got := r.flows[1]; got.Start != 2*time.Minute+time.Second || got.BytesDown != 0 || got.BytesUp != 300 {
		t.Fatalf("second record %+v, want a fresh flow initiated by the server side", got)
	}
}

// serverHelloByParsers is the verdict hasServerHello replaced: decode the
// records, then the messages of each handshake record.
func serverHelloByParsers(data []byte) bool {
	recs, _, err := packet.DecodeTLSRecords(data)
	if err != nil {
		return false
	}
	for _, rec := range recs {
		if rec.Type != packet.TLSRecordHandshake {
			continue
		}
		msgs, err := packet.DecodeTLSHandshakes(rec.Payload)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			if m.Type == packet.TLSHandshakeServerHello {
				return true
			}
		}
	}
	return false
}

// synthServerFlight is the synthesizer's server flight: ServerHello,
// Certificate and ServerHelloDone in one handshake record.
func synthServerFlight(tb testing.TB) []byte {
	sh, err := (&packet.ServerHello{Version: packet.TLSVersion12, CipherSuite: 0xc02f}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	hs := append(sh, packet.OpaqueHandshake(packet.TLSHandshakeCertificate, 2800)...)
	hs = append(hs, packet.OpaqueHandshake(packet.TLSHandshakeServerHelloDone, 0)...)
	return tlsRecord(tb, packet.TLSRecordHandshake, hs)
}

func tlsRecord(tb testing.TB, typ uint8, payload []byte) []byte {
	rec, err := (&packet.TLSRecord{Type: typ, Version: packet.TLSVersion12, Payload: payload}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// FuzzServerHelloScan holds the in-place ServerHello scan to the record and
// handshake parsers on arbitrary server payloads.
func FuzzServerHelloScan(f *testing.F) {
	flight := synthServerFlight(f)
	for i := 0; i <= len(flight); i++ {
		f.Add(flight[:i])
	}
	f.Add([]byte{0x30, 3, 3, 0, 0})
	f.Add(append(bytes.Clone(flight), 0x30, 3, 3, 0, 0))
	f.Add(tlsRecord(f, packet.TLSRecordHandshake, []byte{packet.TLSHandshakeServerHello, 0}))
	f.Add(tlsRecord(f, packet.TLSRecordHandshake, []byte{packet.TLSHandshakeServerHello, 0, 0, 0, packet.TLSHandshakeCertificate, 0}))
	badFirst := tlsRecord(f, packet.TLSRecordHandshake, []byte{packet.TLSHandshakeServerHello, 0, 0, 9, 1})
	f.Add(append(badFirst, flight...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := hasServerHello(data), serverHelloByParsers(data); got != want {
			t.Fatalf("hasServerHello(%x) = %v, parsers say %v", data, got, want)
		}
	})
}

// TestDPIFeedOwnsWhatItKeeps: a ClientHello split across two payloads still
// names the flow, and the DPI keeps no reference to a caller's buffer.
func TestDPIFeedOwnsWhatItKeeps(t *testing.T) {
	ch := tlsClientHelloBytes(t, "split.example.net")

	var split dpiState
	first := bytes.Clone(ch[:20])
	split.feedClientTCP(first)
	if split.done {
		t.Fatal("DPI gave up on an incomplete ClientHello")
	}
	for i := range first {
		first[i] = 0xff
	}
	split.feedClientTCP(bytes.Clone(ch[20:]))
	if !split.isTLS || split.domain != "split.example.net" {
		t.Fatalf("split hello: isTLS %v, domain %q", split.isTLS, split.domain)
	}

	var whole dpiState
	buf := bytes.Clone(ch)
	whole.feedClientTCP(buf)
	for i := range buf {
		buf[i] = 'x'
	}
	if !whole.isTLS || whole.domain != "split.example.net" {
		t.Fatalf("whole hello: isTLS %v, domain %q after the caller reused its buffer", whole.isTLS, whole.domain)
	}
}

// TestObserveAllocationBudget: one 36-event HTTPS flow (3WHS, ClientHello,
// ServerHello, ClientKeyExchange, 14 data/ACK pairs, FIN/FIN) costs the
// tracker a bounded number of heap objects once its anonymization memo is
// warm: the flow state, its first-10 timestamps and the ClientHello parse.
func TestObserveAllocationBudget(t *testing.T) {
	key := make([]byte, cryptopan.KeySize)
	anon, err := cryptopan.New(key)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(Config{Anonymizer: anon, OnFlow: func(FlowRecord) {}})
	ch, sh, cke := tlsClientHelloBytes(t, "e1.whatsapp.net"), tlsServerHelloBytes(t), tlsClientKeyExchangeBytes(t)
	c2s, s2c := tcpTuple(cust, srv), tcpTuple(srv, cust)
	const g = 20 * time.Millisecond
	events := 0
	flow := func() {
		obs := func(tuple packet.FiveTuple, ev SegmentEvent) {
			events++
			tr.Observe(tuple, ev)
		}
		at, seq := time.Second, uint32(1)
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagSYN, Packets: 1})
		obs(s2c, SegmentEvent{T: at + g, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1})
		obs(c2s, SegmentEvent{T: at + g + time.Millisecond, Flags: packet.FlagACK, Ack: 1, Packets: 1})
		at += g + 2*time.Millisecond
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(ch), AppData: ch, Packets: 1})
		seq += uint32(len(ch))
		at += g
		obs(s2c, SegmentEvent{T: at, Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Ack: seq, Payload: len(sh), AppData: sh, Packets: 3})
		at += 600 * time.Millisecond
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(cke), AppData: cke, Packets: 1})
		seq += uint32(len(cke))
		srvSeq := uint32(1 + len(sh))
		for i := 0; i < 14; i++ {
			at += 5 * time.Millisecond
			obs(s2c, SegmentEvent{T: at, Flags: packet.FlagACK, Seq: srvSeq, Ack: seq, Payload: 1460, Packets: 1})
			srvSeq += 1460
			obs(c2s, SegmentEvent{T: at + time.Millisecond, Flags: packet.FlagACK, Seq: seq, Ack: srvSeq, Packets: 1})
		}
		at += 10 * time.Millisecond
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagFIN | packet.FlagACK, Seq: seq, Ack: srvSeq, Packets: 1})
		obs(s2c, SegmentEvent{T: at + g, Flags: packet.FlagFIN | packet.FlagACK, Seq: srvSeq, Ack: seq + 1, Packets: 1})
		tr.Flush()
	}
	flow() // warm the memo, the touched list and the table
	if events != 36 {
		t.Fatalf("flow has %d events, want 36", events)
	}
	n := testing.AllocsPerRun(20, flow)
	t.Logf("one HTTPS flow: %.1f objects", n)
	if n > 8 {
		t.Errorf("one HTTPS flow allocated %.1f objects, budget 8", n)
	}
}

// TestAnonymizeMemoMatchesCryptoPAn: the tracker's memo returns what
// Crypto-PAn computes, on first sight and on every repeat, and leaves IPv6
// clients as they are.
func TestAnonymizeMemoMatchesCryptoPAn(t *testing.T) {
	key := make([]byte, cryptopan.KeySize)
	for i := range key {
		key[i] = byte(3 * i)
	}
	anon, err := cryptopan.New(key)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(Config{Anonymizer: anon})
	rng := rand.New(rand.NewPCG(1, 2))
	addrs := make([]netip.Addr, 10_000)
	for i := range addrs {
		var b [4]byte
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		addrs[i] = netip.AddrFrom4(b)
	}
	for pass := 0; pass < 2; pass++ {
		for _, a := range addrs {
			if got, want := tr.anonymize(a), anon.MustAnonymize(a); got != want {
				t.Fatalf("pass %d: anonymize(%v) = %v, Crypto-PAn %v", pass, a, got, want)
			}
		}
	}
	v6 := netip.MustParseAddr("2001:db8::7")
	if got := tr.anonymize(v6); got != v6 {
		t.Fatalf("IPv6 client %v rewritten to %v", v6, got)
	}
	if got := NewTracker(Config{}).anonymize(addrs[0]); got != addrs[0] {
		t.Fatalf("tracker without an anonymizer rewrote %v to %v", addrs[0], got)
	}
}
