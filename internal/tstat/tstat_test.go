package tstat

import (
	"errors"
	"io"
	"net/netip"
	"satwatch/internal/trace"
	"testing"
	"time"

	"satwatch/internal/cryptopan"
	"satwatch/internal/packet"
)

var (
	cust = packet.Endpoint{Addr: netip.MustParseAddr("10.3.7.9"), Port: 41000}
	srv  = packet.Endpoint{Addr: netip.MustParseAddr("151.101.9.9"), Port: 443}
)

func tcpTuple(src, dst packet.Endpoint) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoTCP, Src: src, Dst: dst}
}

func udpTuple(src, dst packet.Endpoint) packet.FiveTuple {
	return packet.FiveTuple{Proto: packet.ProtoUDP, Src: src, Dst: dst}
}

// tlsClientHelloBytes builds a handshake record carrying a ClientHello.
func tlsClientHelloBytes(t *testing.T, sni string) []byte {
	t.Helper()
	hs, err := (&packet.ClientHello{Version: packet.TLSVersion12, ServerName: sni}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := (&packet.TLSRecord{Type: packet.TLSRecordHandshake, Version: packet.TLSVersion12, Payload: hs}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func tlsServerHelloBytes(t *testing.T) []byte {
	t.Helper()
	hs, err := (&packet.ServerHello{Version: packet.TLSVersion12, CipherSuite: 0x1301}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	hs = append(hs, packet.OpaqueHandshake(packet.TLSHandshakeCertificate, 1800)...)
	rec, err := (&packet.TLSRecord{Type: packet.TLSRecordHandshake, Version: packet.TLSVersion12, Payload: hs}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func tlsClientKeyExchangeBytes(t *testing.T) []byte {
	t.Helper()
	hs := packet.OpaqueHandshake(packet.TLSHandshakeClientKeyExchange, 64)
	rec, err := (&packet.TLSRecord{Type: packet.TLSRecordHandshake, Version: packet.TLSVersion12, Payload: hs}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	ccs, err := (&packet.TLSRecord{Type: packet.TLSRecordChangeCipherSpec, Version: packet.TLSVersion12, Payload: []byte{1}}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(rec, ccs...)
}

// playHTTPSFlow drives a full HTTPS exchange through the tracker and
// returns its single record. satGap is the ServerHello→CKE spacing;
// ackGap the data→ACK spacing.
func playHTTPSFlow(t *testing.T, tr *Tracker, satGap, ackGap time.Duration) FlowRecord {
	t.Helper()
	c2s := tcpTuple(cust, srv)
	s2c := tcpTuple(srv, cust)
	at := 10 * time.Second
	seq := uint32(1)

	// 3WHS.
	tr.Observe(c2s, SegmentEvent{T: at, Flags: packet.FlagSYN, Seq: 0, Packets: 1})
	tr.Observe(s2c, SegmentEvent{T: at + ackGap, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1})
	tr.Observe(c2s, SegmentEvent{T: at + ackGap + time.Millisecond, Flags: packet.FlagACK, Ack: 1, Packets: 1})

	// ClientHello.
	ch := tlsClientHelloBytes(t, "e1.whatsapp.net")
	tch := at + ackGap + 2*time.Millisecond
	tr.Observe(c2s, SegmentEvent{T: tch, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(ch), AppData: ch, Packets: 1})
	seq += uint32(len(ch))
	// Server ACKs the hello after the ground RTT.
	tr.Observe(s2c, SegmentEvent{T: tch + ackGap, Flags: packet.FlagACK, Ack: seq, Packets: 1})
	// ServerHello+Certificate.
	sh := tlsServerHelloBytes(t)
	tsh := tch + ackGap + time.Millisecond
	tr.Observe(s2c, SegmentEvent{T: tsh, Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: len(sh), AppData: sh, Packets: 2})
	// ClientKeyExchange arrives a satellite RTT later.
	cke := tlsClientKeyExchangeBytes(t)
	tr.Observe(c2s, SegmentEvent{T: tsh + satGap, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(cke), AppData: cke, Packets: 1})
	seq += uint32(len(cke))
	tr.Observe(s2c, SegmentEvent{T: tsh + satGap + ackGap, Flags: packet.FlagACK, Ack: seq, Packets: 1})

	// Application data downstream.
	tr.Observe(s2c, SegmentEvent{T: tsh + satGap + ackGap + 5*time.Millisecond, Flags: packet.FlagACK, Seq: 2000, Payload: 50000, Packets: 35})
	// Teardown.
	tend := tsh + satGap + ackGap + 100*time.Millisecond
	tr.Observe(c2s, SegmentEvent{T: tend, Flags: packet.FlagFIN | packet.FlagACK, Seq: seq, Packets: 1})
	tr.Observe(s2c, SegmentEvent{T: tend + ackGap, Flags: packet.FlagFIN | packet.FlagACK, Ack: seq + 1, Packets: 1})

	flows, _ := tr.Flush()
	if len(flows) != 1 {
		t.Fatalf("%d flows, want 1", len(flows))
	}
	return flows[0]
}

func TestHTTPSFlowRecord(t *testing.T) {
	tr := NewTracker(Config{})
	rec := playHTTPSFlow(t, tr, 600*time.Millisecond, 20*time.Millisecond)

	if rec.Proto != ProtoHTTPS {
		t.Fatalf("proto %v", rec.Proto)
	}
	if rec.Domain != "e1.whatsapp.net" {
		t.Fatalf("domain %q", rec.Domain)
	}
	if rec.Client != cust.Addr || rec.Server != srv.Addr {
		t.Fatal("endpoints wrong")
	}
	// Satellite RTT from the TLS handshake gap.
	if rec.SatRTT < 590*time.Millisecond || rec.SatRTT > 610*time.Millisecond {
		t.Fatalf("satellite RTT %v, want ≈600ms", rec.SatRTT)
	}
	// Ground RTT from data→ACK samples.
	if rec.GroundRTT.Samples < 2 {
		t.Fatalf("%d ground RTT samples", rec.GroundRTT.Samples)
	}
	if rec.GroundRTT.Avg < 15*time.Millisecond || rec.GroundRTT.Avg > 25*time.Millisecond {
		t.Fatalf("ground RTT avg %v, want ≈20ms", rec.GroundRTT.Avg)
	}
	if rec.BytesDown < 50000 {
		t.Fatalf("bytes down %d", rec.BytesDown)
	}
	if rec.PktsDown < 35 {
		t.Fatalf("pkts down %d — burst aggregation lost packets", rec.PktsDown)
	}
	if len(rec.First10) != 10 {
		t.Fatalf("first10 has %d entries", len(rec.First10))
	}
	for i := 1; i < len(rec.First10); i++ {
		if rec.First10[i] < rec.First10[i-1] {
			t.Fatal("first10 not monotone")
		}
	}
}

func TestSatRTTOnlyForCompletedTLS(t *testing.T) {
	tr := NewTracker(Config{})
	c2s := tcpTuple(cust, srv)
	tr.Observe(c2s, SegmentEvent{T: time.Second, Flags: packet.FlagSYN})
	ch := tlsClientHelloBytes(t, "x.test")
	tr.Observe(c2s, SegmentEvent{T: time.Second + time.Millisecond, Seq: 1, Payload: len(ch), AppData: ch, Flags: packet.FlagACK})
	flows, _ := tr.Flush()
	if flows[0].SatRTT != 0 {
		t.Fatalf("satellite RTT %v for an incomplete handshake", flows[0].SatRTT)
	}
}

func TestHTTPFlow(t *testing.T) {
	tr := NewTracker(Config{})
	web := packet.Endpoint{Addr: netip.MustParseAddr("185.60.9.1"), Port: 80}
	c2s := tcpTuple(cust, web)
	req, _ := (&packet.HTTPRequest{Method: "GET", Target: "/video.ts",
		Headers: []packet.HTTPHeader{{Name: "Host", Value: "video-cdn.sky.com"}}}).AppendBinary(nil)
	tr.Observe(c2s, SegmentEvent{T: 0, Flags: packet.FlagSYN})
	tr.Observe(c2s, SegmentEvent{T: time.Millisecond, Seq: 1, Payload: len(req), AppData: req, Flags: packet.FlagACK})
	flows, _ := tr.Flush()
	if flows[0].Proto != ProtoHTTP {
		t.Fatalf("proto %v", flows[0].Proto)
	}
	if flows[0].Domain != "video-cdn.sky.com" {
		t.Fatalf("domain %q", flows[0].Domain)
	}
}

func TestQUICFlow(t *testing.T) {
	tr := NewTracker(Config{})
	q443 := packet.Endpoint{Addr: netip.MustParseAddr("34.76.1.1"), Port: 443}
	hs, _ := (&packet.ClientHello{ServerName: "www.youtube.com"}).AppendBinary(nil)
	ini, err := (&packet.QUICInitial{Version: packet.QUICVersion1, DCID: []byte{1, 2, 3, 4}, CryptoPayload: hs}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(udpTuple(cust, q443), SegmentEvent{T: 0, Payload: len(ini), AppData: ini})
	tr.Observe(udpTuple(q443, cust), SegmentEvent{T: 50 * time.Millisecond, Payload: 1200})
	flows, _ := tr.Flush()
	if flows[0].Proto != ProtoQUIC {
		t.Fatalf("proto %v", flows[0].Proto)
	}
	if flows[0].Domain != "www.youtube.com" {
		t.Fatalf("QUIC SNI %q", flows[0].Domain)
	}
}

func TestRTPFlow(t *testing.T) {
	tr := NewTracker(Config{})
	media := packet.Endpoint{Addr: netip.MustParseAddr("52.20.3.3"), Port: 19302}
	rtp, _ := (&packet.RTP{PayloadType: 111, Sequence: 1, SSRC: 7}).AppendBinary(nil)
	payload := append(rtp, make([]byte, 160)...)
	for i := 0; i < 5; i++ {
		tr.Observe(udpTuple(cust, media), SegmentEvent{T: time.Duration(i) * 20 * time.Millisecond, Payload: len(payload), AppData: payload})
	}
	flows, _ := tr.Flush()
	if flows[0].Proto != ProtoRTP {
		t.Fatalf("proto %v", flows[0].Proto)
	}
}

func TestOtherProtocols(t *testing.T) {
	tr := NewTracker(Config{})
	vpn := packet.Endpoint{Addr: netip.MustParseAddr("3.3.3.3"), Port: 1194}
	tr.Observe(tcpTuple(cust, vpn), SegmentEvent{T: 0, Flags: packet.FlagSYN})
	tr.Observe(tcpTuple(cust, vpn), SegmentEvent{T: time.Millisecond, Seq: 1, Payload: 500, AppData: []byte{0x38, 0x01, 0x02}, Flags: packet.FlagACK})
	ntp := packet.Endpoint{Addr: netip.MustParseAddr("4.4.4.4"), Port: 123}
	tr.Observe(udpTuple(cust, ntp), SegmentEvent{T: 0, Payload: 48, AppData: make([]byte, 48)})
	flows, _ := tr.Flush()
	byPort := map[uint16]Protocol{}
	for _, f := range flows {
		byPort[f.SPort] = f.Proto
	}
	if byPort[1194] != ProtoTCPOther {
		t.Fatalf("vpn proto %v", byPort[1194])
	}
	if byPort[123] != ProtoUDPOther {
		t.Fatalf("ntp proto %v", byPort[123])
	}
}

func TestDNSTransactions(t *testing.T) {
	tr := NewTracker(Config{})
	resolver := packet.Endpoint{Addr: netip.MustParseAddr("8.8.8.8"), Port: 53}
	q := &packet.DNS{ID: 42, RD: true, Questions: []packet.DNSQuestion{{Name: "www.google.com", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	qb, _ := q.AppendBinary(nil)
	resp := &packet.DNS{ID: 42, QR: true, RA: true,
		Questions: q.Questions,
		Answers:   []packet.DNSRR{{Name: "www.google.com", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Addr: netip.MustParseAddr("142.250.1.1")}}}
	rb, _ := resp.AppendBinary(nil)

	tr.Observe(udpTuple(cust, resolver), SegmentEvent{T: time.Second, Payload: len(qb), AppData: qb})
	tr.Observe(udpTuple(resolver, cust), SegmentEvent{T: time.Second + 22*time.Millisecond, Payload: len(rb), AppData: rb})

	flows, dns := tr.Flush()
	if len(dns) != 1 {
		t.Fatalf("%d DNS records", len(dns))
	}
	d := dns[0]
	if d.Query != "www.google.com" || d.Resolver != resolver.Addr {
		t.Fatalf("dns record %+v", d)
	}
	if d.ResponseTime != 22*time.Millisecond {
		t.Fatalf("response time %v", d.ResponseTime)
	}
	if d.Answer != netip.MustParseAddr("142.250.1.1") {
		t.Fatalf("answer %v", d.Answer)
	}
	if len(flows) != 1 || flows[0].Proto != ProtoDNS {
		t.Fatal("DNS flow record missing")
	}
}

// TestIdleEviction: Observe alone never evicts, whatever timestamps it is
// handed; AdvanceTime emits a flow once the clock passes its idle timeout.
func TestIdleEviction(t *testing.T) {
	tr := NewTracker(Config{})
	web := packet.Endpoint{Addr: netip.MustParseAddr("5.5.5.5"), Port: 8000}
	tr.Observe(udpTuple(cust, web), SegmentEvent{T: 0, Payload: 100})
	if tr.Active() != 1 {
		t.Fatal("flow not tracked")
	}
	// A later event on another flow does not move the clock.
	other := packet.Endpoint{Addr: netip.MustParseAddr("6.6.6.6"), Port: 8000}
	tr.Observe(udpTuple(cust, other), SegmentEvent{T: 2 * time.Minute, Payload: 100})
	if tr.Active() != 2 {
		t.Fatalf("Observe evicted a flow (%d active, want 2)", tr.Active())
	}
	tr.AdvanceTime(time.Minute - time.Second)
	if tr.Active() != 2 {
		t.Fatalf("flow evicted before its idle timeout (%d active)", tr.Active())
	}
	tr.AdvanceTime(time.Minute)
	if tr.Active() != 1 {
		t.Fatalf("idle flow not evicted at its timeout (%d active)", tr.Active())
	}
	flows, _ := tr.Flush()
	if len(flows) != 2 || flows[0].Server != web.Addr {
		t.Fatalf("flows %+v, want the idled-out flow first", flows)
	}
}

func TestAnonymizationAppliedToClientOnly(t *testing.T) {
	key := make([]byte, cryptopan.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	anon, err := cryptopan.New(key)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(Config{Anonymizer: anon})
	rec := playHTTPSFlow(t, tr, 600*time.Millisecond, 20*time.Millisecond)
	if rec.Client == cust.Addr {
		t.Fatal("client address not anonymized")
	}
	if rec.Server != srv.Addr {
		t.Fatal("server address must stay intact (the paper aggregates per service)")
	}
	if rec.Client != anon.MustAnonymize(cust.Addr) {
		t.Fatal("anonymization not Crypto-PAn keyed")
	}
}

func TestRetransmissionKarnsRule(t *testing.T) {
	tr := NewTracker(Config{})
	c2s := tcpTuple(cust, srv)
	s2c := tcpTuple(srv, cust)
	tr.Observe(c2s, SegmentEvent{T: 0, Flags: packet.FlagSYN})
	// Data, then the same data again (retransmit), then a late ACK.
	tr.Observe(c2s, SegmentEvent{T: 10 * time.Millisecond, Seq: 1, Payload: 100, Flags: packet.FlagACK})
	tr.Observe(c2s, SegmentEvent{T: 500 * time.Millisecond, Seq: 1, Payload: 100, Flags: packet.FlagACK})
	tr.Observe(s2c, SegmentEvent{T: 520 * time.Millisecond, Flags: packet.FlagACK, Ack: 101})
	flows, _ := tr.Flush()
	if flows[0].GroundRTT.Samples != 0 {
		t.Fatalf("ambiguous RTT sampled (%d samples) — Karn's rule violated", flows[0].GroundRTT.Samples)
	}
}

func TestStreamingCallbacks(t *testing.T) {
	var got []FlowRecord
	tr := NewTracker(Config{OnFlow: func(r FlowRecord) { got = append(got, r) }})
	playHTTPSFlowNoFlushCheck(t, tr)
	flows, _ := tr.Flush()
	if len(flows) != 0 {
		t.Fatal("accumulating despite callback")
	}
	if len(got) != 1 {
		t.Fatalf("callback saw %d flows", len(got))
	}
}

func playHTTPSFlowNoFlushCheck(t *testing.T, tr *Tracker) {
	c2s := tcpTuple(cust, srv)
	tr.Observe(c2s, SegmentEvent{T: 0, Flags: packet.FlagSYN})
	tr.Observe(c2s, SegmentEvent{T: time.Millisecond, Seq: 1, Payload: 10, Flags: packet.FlagACK})
}

func TestFeedPacketFrontend(t *testing.T) {
	tr := NewTracker(Config{})
	ch := tlsClientHelloBytes(t, "api.twitter.com")
	seg := &packet.TCP{SrcPort: cust.Port, DstPort: srv.Port, Seq: 1, Flags: packet.FlagACK | packet.FlagPSH}
	raw, err := (&packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: cust.Addr, Dst: srv.Addr}).Encode(seg.Encode(ch))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.FeedPacket(time.Second, raw); err != nil {
		t.Fatal(err)
	}
	flows, _ := tr.Flush()
	if len(flows) != 1 || flows[0].Domain != "api.twitter.com" {
		t.Fatalf("packet frontend: %+v", flows)
	}
	if err := tr.FeedPacket(0, []byte{1, 2, 3}); !errors.Is(err, packet.ErrTruncated) {
		t.Fatalf("garbage packet: error %v, want %v", err, packet.ErrTruncated)
	}
}

func TestTraceFlowFinishesAtEmission(t *testing.T) {
	tr := NewTracker(Config{})
	rec := trace.New(io.Discard, 1)
	fl := rec.Start(4, 0, 7)
	tr.TraceFlow(tcpTuple(cust, srv), fl)
	if rec.Len() != 0 {
		t.Fatal("trace finished before the flow was emitted")
	}
	flowRec := playHTTPSFlow(t, tr, 600*time.Millisecond, 20*time.Millisecond)
	if rec.Len() != 1 {
		t.Fatalf("trace not finished at flow emission: %d done", rec.Len())
	}
	if len(fl.Spans) != 1 || fl.Spans[0].Name != trace.SpanHandshakeRTT {
		t.Fatalf("expected one %s span, got %+v", trace.SpanHandshakeRTT, fl.Spans)
	}
	s := fl.Spans[0]
	if s.Seg != trace.SegProbe || s.DurMS != float64(flowRec.SatRTT)/float64(time.Millisecond) {
		t.Fatalf("span %+v does not match measured RTT %v", s, flowRec.SatRTT)
	}
	if s.Attrs["proto"] != flowRec.Proto.String() {
		t.Fatalf("span proto %v, want %v", s.Attrs["proto"], flowRec.Proto)
	}

	// Unmeasured flows (no handshake RTT) still finish, without the span.
	tr2 := NewTracker(Config{})
	fl2 := rec.Start(4, 0, 8)
	tr2.TraceFlow(tcpTuple(cust, srv), fl2)
	ch := tlsClientHelloBytes(t, "x.test")
	tr2.Observe(tcpTuple(cust, srv), SegmentEvent{T: time.Second, Flags: packet.FlagSYN})
	tr2.Observe(tcpTuple(cust, srv), SegmentEvent{T: time.Second + time.Millisecond, Seq: 1, Payload: len(ch), AppData: ch, Flags: packet.FlagACK})
	tr2.Flush()
	if rec.Len() != 2 {
		t.Fatal("unmeasured traced flow did not finish at emission")
	}
	if len(fl2.Spans) != 0 {
		t.Fatalf("unmeasured flow recorded spans: %+v", fl2.Spans)
	}

	// A nil handle is ignored.
	tr3 := NewTracker(Config{})
	tr3.TraceFlow(tcpTuple(cust, srv), nil)
	playHTTPSFlow(t, tr3, 600*time.Millisecond, 20*time.Millisecond)
}
