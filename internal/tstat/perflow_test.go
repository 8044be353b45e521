package tstat

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"slices"
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

// serverHelloByParsers is the verdict of the struct-building TLS decoders,
// written out with slices: split the payload into records (an unknown
// content type rejects the whole payload, a trailing partial record is
// dropped), then each handshake record into its messages (a record whose
// messages do not frame exactly is skipped).
func serverHelloByParsers(data []byte) bool {
	var handshakes [][]byte
	for len(data) >= 5 {
		typ := data[0]
		if typ < packet.TLSRecordChangeCipherSpec || typ > packet.TLSRecordApplicationData {
			return false
		}
		n := int(binary.BigEndian.Uint16(data[3:5]))
		if 5+n > len(data) {
			break
		}
		if typ == packet.TLSRecordHandshake {
			handshakes = append(handshakes, data[5:5+n])
		}
		data = data[5+n:]
	}
	for _, payload := range handshakes {
		var types []uint8
		for len(payload) > 0 {
			if len(payload) < 4 {
				break
			}
			n := int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
			if 4+n > len(payload) {
				break
			}
			types = append(types, payload[0])
			payload = payload[4+n:]
		}
		if len(payload) == 0 && slices.Contains(types, packet.TLSHandshakeServerHello) {
			return true
		}
	}
	return false
}

// synthServerFlight is the synthesizer's server flight: ServerHello,
// Certificate and ServerHelloDone in one handshake record.
func synthServerFlight(tb testing.TB) []byte {
	sh, err := (&packet.ServerHello{Version: packet.TLSVersion12, CipherSuite: 0xc02f}).AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	hs := append(sh, packet.OpaqueHandshake(packet.TLSHandshakeCertificate, 2800)...)
	hs = append(hs, packet.OpaqueHandshake(packet.TLSHandshakeServerHelloDone, 0)...)
	return tlsRecord(tb, packet.TLSRecordHandshake, hs)
}

func tlsRecord(tb testing.TB, typ uint8, payload []byte) []byte {
	rec, err := (&packet.TLSRecord{Type: typ, Version: packet.TLSVersion12, Payload: payload}).AppendBinary(nil)
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

// TestObserveAllocationBudget: a flow of each kind the synthesizer writes
// costs the tracker no heap object once its memos (anonymization, names),
// free list and pending-query maps are warm. HTTPS flows cost 7, DNS 15,
// QUIC 9 and HTTP 7 objects when every payload was decoded into structs; 2,
// 4, 2 and 2 once DPI and the DNS path read the wire in place, which left
// the flow state, its first-10 timestamps and a DNS flow's pending-query
// map; none since emitted states are recycled and First10 is carved from
// a slab. The slab's one allocation per slabFlows flows is the only
// allowance.
func TestObserveAllocationBudget(t *testing.T) {
	key := make([]byte, cryptopan.KeySize)
	anon, err := cryptopan.New(key)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(Config{Anonymizer: anon, OnFlow: func(FlowRecord) {}, OnDNS: func(DNSRecord) {}})
	events := 0
	obs := func(tuple packet.FiveTuple, ev SegmentEvent) {
		events++
		tr.Observe(tuple, ev)
	}
	const g = 20 * time.Millisecond

	// HTTPS: 3WHS, ClientHello, ServerHello, ClientKeyExchange, 14
	// data/ACK pairs, FIN/FIN.
	ch, sh, cke := tlsClientHelloBytes(t, "e1.whatsapp.net"), tlsServerHelloBytes(t), tlsClientKeyExchangeBytes(t)
	https := func() {
		c2s, s2c := tcpTuple(cust, srv), tcpTuple(srv, cust)
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
	}

	// DNS: a query and its answer.
	resolver := packet.Endpoint{Addr: netip.MustParseAddr("8.8.8.8"), Port: 53}
	q := &packet.DNS{ID: 42, RD: true, Questions: []packet.DNSQuestion{{Name: "www.google.com", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	resp := &packet.DNS{ID: 42, QR: true, RA: true, Questions: q.Questions,
		Answers: []packet.DNSRR{{Name: "www.google.com", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Addr: netip.MustParseAddr("142.250.1.1")}}}
	qb, err := q.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	dns := func() {
		obs(udpTuple(cust, resolver), SegmentEvent{T: time.Second, Payload: len(qb), AppData: qb, Packets: 1})
		obs(udpTuple(resolver, cust), SegmentEvent{T: time.Second + g, Payload: len(rb), AppData: rb, Packets: 1})
	}

	// QUIC: the Initial, the server's flight, the client's completion.
	hs, err := (&packet.ClientHello{Version: packet.TLSVersion12, ServerName: "www.youtube.com"}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := (&packet.QUICInitial{Version: packet.QUICVersion1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, CryptoPayload: hs}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	quic := func() {
		obs(udpTuple(cust, srv), SegmentEvent{T: time.Second, Payload: 1252, AppData: ini, Packets: 1})
		obs(udpTuple(srv, cust), SegmentEvent{T: time.Second + g, Payload: 3600, Packets: 3})
		obs(udpTuple(cust, srv), SegmentEvent{T: time.Second + 600*time.Millisecond, Payload: 120, Packets: 1})
	}

	// HTTP: 3WHS, the request and its ACK, FIN/FIN.
	web := packet.Endpoint{Addr: netip.MustParseAddr("185.60.9.1"), Port: 80}
	req, _ := (&packet.HTTPRequest{Method: "GET", Target: "/", Headers: []packet.HTTPHeader{{Name: "Host", Value: "video-cdn.sky.com"}}}).AppendBinary(nil)
	http := func() {
		c2s, s2c := tcpTuple(cust, web), tcpTuple(web, cust)
		at := time.Second
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagSYN, Packets: 1})
		obs(s2c, SegmentEvent{T: at + g, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1})
		obs(c2s, SegmentEvent{T: at + g + time.Millisecond, Flags: packet.FlagACK, Ack: 1, Packets: 1})
		at += g + 2*time.Millisecond
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: len(req), AppData: req, Packets: 1})
		obs(s2c, SegmentEvent{T: at + g, Flags: packet.FlagACK, Ack: 1 + uint32(len(req)), Packets: 1})
		at += 2 * g
		obs(c2s, SegmentEvent{T: at, Flags: packet.FlagFIN | packet.FlagACK, Seq: 1 + uint32(len(req)), Ack: 1, Packets: 1})
		obs(s2c, SegmentEvent{T: at + g, Flags: packet.FlagFIN | packet.FlagACK, Seq: 1, Ack: 2 + uint32(len(req)), Packets: 1})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name   string
		play   func()
		events int
	}{
		{"HTTPS", https, 36},
		{"DNS", dns, 2},
		{"QUIC", quic, 3},
		{"HTTP", http, 7},
	} {
		flow := func() {
			c.play()
			tr.Flush()
		}
		events = 0
		flow()
		if events != c.events {
			t.Fatalf("%s flow has %d events, want %d", c.name, events, c.events)
		}
		// Warm the memos, the free list and the table, and grow the slab
		// to its full size.
		for range slabFlows {
			flow()
		}
		const runs = 4 * slabFlows
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			flow()
		}
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		t.Logf("%d %s flows: %d objects", runs, c.name, n)
		// The flows' First10 fill this many full slabs, and may start one
		// more.
		if budget := uint64(runs*min(c.events, 10)/(slabFlows*10) + 1); n > budget {
			t.Errorf("%d %s flows allocated %d objects, budget %d (the First10 slabs)", runs, c.name, n, budget)
		}
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
