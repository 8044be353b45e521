package packet

import (
	"bytes"
	"net/netip"
	"testing"
)

// The decoders face attacker-controlled bytes (the probe parses whatever
// crosses the wire), so none of them may panic on any input. Each fuzz
// target seeds the corpus with valid frames and lets the fuzzer mutate.

func FuzzDecode(f *testing.F) {
	f.Add(encodeTCP(f, &IPv4{TTL: 64, Protocol: ProtoTCP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("1.2.3.4")},
		&TCP{SrcPort: 1234, DstPort: 443, Seq: 1000, Ack: 2000, Flags: FlagPSH | FlagACK}, []byte("payload")))
	f.Add(encodeUDP(f, &IPv4{TTL: 64, Protocol: ProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("8.8.8.8")},
		&UDP{SrcPort: 53, DstPort: 53}, []byte{1, 2, 3}))
	f.Add([]byte{})
	// Every packet Decode accepts re-encodes, headers and payload, to one
	// that decodes to the same IP header, tuple, TCP header and payload:
	// the fields the probe reads survive Encode.
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		transport := p.Payload
		switch {
		case p.TCP != nil:
			transport = p.TCP.Encode(p.Payload)
		case p.UDP != nil:
			if transport, err = p.UDP.Encode(p.Payload); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := p.IP.Encode(transport)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-encoded packet rejected: %v", err)
		}
		pt, pok := p.Tuple()
		qt, qok := q.Tuple()
		if pt != qt || pok != qok || q.IP != p.IP || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("re-encoded %v %+v %q, decoded %v %+v %q", qt, q.IP, q.Payload, pt, p.IP, p.Payload)
		}
		if (p.TCP == nil) != (q.TCP == nil) || p.TCP != nil && *q.TCP != *p.TCP {
			t.Fatalf("re-encoded TCP %+v, decoded %+v", q.TCP, p.TCP)
		}
	})
}

// synthPayloads are the application payloads the synthesizer writes, built
// as internal/netsim builds them: a DNS query and its answer, a
// ClientHello record, the server's ServerHello/Certificate/ServerHelloDone
// record, the client's ClientKeyExchange and ChangeCipherSpec records, a
// QUIC Initial and an HTTP request head.
type synthPayloads struct {
	dnsQuery, dnsAnswer                    []byte
	clientHello, serverFlight, clientFinal []byte
	quicInitial, httpRequest               []byte
}

func newSynthPayloads(tb testing.TB) synthPayloads {
	const domain = "e1.whatsapp.net"
	must := func(b []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	record := func(typ uint8, payload []byte) []byte {
		return must((&TLSRecord{Type: typ, Version: TLSVersion12, Payload: payload}).AppendBinary(nil))
	}
	q := &DNS{ID: 0xbeef, RD: true, Questions: []DNSQuestion{{Name: domain, Type: DNSTypeA, Class: DNSClassIN}}}
	resp := &DNS{ID: 0xbeef, QR: true, RA: true, Questions: q.Questions,
		Answers: []DNSRR{{Name: domain, Type: DNSTypeA, Class: DNSClassIN, TTL: 60, Addr: netip.MustParseAddr("157.240.1.53")}}}
	ch := must((&ClientHello{Version: TLSVersion12, ServerName: domain}).AppendBinary(nil))
	flight := must((&ServerHello{Version: TLSVersion12, CipherSuite: 0xc02f}).AppendBinary(nil))
	flight = append(flight, OpaqueHandshake(TLSHandshakeCertificate, 2800)...)
	flight = append(flight, OpaqueHandshake(TLSHandshakeServerHelloDone, 0)...)
	return synthPayloads{
		dnsQuery:     must(q.AppendBinary(nil)),
		dnsAnswer:    must(resp.AppendBinary(nil)),
		clientHello:  record(TLSRecordHandshake, ch),
		serverFlight: record(TLSRecordHandshake, flight),
		clientFinal: append(record(TLSRecordHandshake, OpaqueHandshake(TLSHandshakeClientKeyExchange, 66)),
			record(TLSRecordChangeCipherSpec, []byte{1})...),
		quicInitial: must((&QUICInitial{Version: QUICVersion1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, CryptoPayload: ch}).AppendBinary(nil)),
		httpRequest: must((&HTTPRequest{Method: "GET", Target: "/", Headers: []HTTPHeader{{Name: "Host", Value: domain}}}).AppendBinary(nil)),
	}
}

// addCuts seeds f with every prefix of each payload, as a probe holding
// only the first bytes of a stream, or a capture's snap length, sees them.
func addCuts(f *testing.F, payloads ...[]byte) {
	for _, p := range payloads {
		for i := 0; i <= len(p); i++ {
			f.Add(p[:i])
		}
	}
}

// sameErr reports whether two errors are both nil or say the same thing.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// FuzzDecodeDNS holds ScanDNS to DecodeDNS: the same error, and the ID,
// QR, RCode, first question name and first A answer of the decoded message.
func FuzzDecodeDNS(f *testing.F) {
	m := &DNS{ID: 1, RD: true, Questions: []DNSQuestion{{Name: "www.example.com", Type: DNSTypeA, Class: DNSClassIN}}}
	raw, _ := m.AppendBinary(nil)
	f.Add(raw)
	// A compressed response.
	var comp []byte
	comp = append(comp, 0, 7, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0)
	name, _ := appendName(nil, "a.b")
	comp = append(comp, name...)
	comp = append(comp, 0, 1, 0, 1, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4)
	f.Add(comp)
	syn := newSynthPayloads(f)
	addCuts(f, syn.dnsQuery, syn.dnsAnswer)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeDNS(data)
		s, qname, serr := ScanDNS(data, nil)
		if !sameErr(serr, err) {
			t.Fatalf("ScanDNS(%x) error %v, DecodeDNS %v", data, serr, err)
		}
		if err != nil {
			return
		}
		var name string
		if len(m.Questions) > 0 {
			name = m.Questions[0].Name
		}
		var answer netip.Addr
		for _, a := range m.Answers {
			if a.Type == DNSTypeA {
				answer = a.Addr
				break
			}
		}
		if s.ID != m.ID || s.QR != m.QR || s.RCode != m.RCode || string(qname) != name || s.Answer != answer {
			t.Fatalf("ScanDNS(%x) = %+v, %q; DecodeDNS %+v", data, s, qname, m)
		}
	})
}

// clientHelloByDecoders names a client TLS stream with the decoders: the
// records' handshake payloads joined, split into messages, and the first
// ClientHello that parses.
func clientHelloByDecoders(stream []byte) (string, bool) {
	recs, _, err := DecodeTLSRecords(stream)
	if err != nil {
		return "", false
	}
	var hs []byte
	for _, rec := range recs {
		if rec.Type == TLSRecordHandshake {
			hs = append(hs, rec.Payload...)
		}
	}
	msgs, err := DecodeTLSHandshakes(hs)
	if err != nil {
		return "", false
	}
	for _, m := range msgs {
		if m.Type != TLSHandshakeClientHello {
			continue
		}
		if ch, err := ParseClientHello(m.Body); err == nil {
			return ch.ServerName, true
		}
	}
	return "", false
}

// FuzzDecodeTLS holds the in-place walkers to the decoders: WalkTLSRecords
// to DecodeTLSRecords (verdict and records), WalkTLSHandshakes to
// DecodeTLSHandshakes on the input and on each record's payload, helloSNI
// to ParseClientHello, and ClientHelloSNI to the decoders' pipeline.
func FuzzDecodeTLS(f *testing.F) {
	ch, _ := (&ClientHello{ServerName: "fuzz.example"}).AppendBinary(nil)
	rec, _ := (&TLSRecord{Type: TLSRecordHandshake, Version: TLSVersion12, Payload: ch}).AppendBinary(nil)
	f.Add(rec)
	f.Add(ch[4:])
	syn := newSynthPayloads(f)
	addCuts(f, syn.clientHello, syn.clientFinal)
	f.Add(syn.serverFlight)
	// A ClientHello split over two handshake records.
	first, _ := (&TLSRecord{Type: TLSRecordHandshake, Version: TLSVersion12, Payload: ch[:9]}).AppendBinary(nil)
	second, _ := (&TLSRecord{Type: TLSRecordHandshake, Version: TLSVersion12, Payload: ch[9:]}).AppendBinary(nil)
	f.Add(append(first, second...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, err := DecodeTLSRecords(data)
		var walked []TLSRecord
		wellFormed := WalkTLSRecords(data, func(typ uint8, payload []byte) {
			walked = append(walked, TLSRecord{Type: typ, Payload: payload})
		})
		if wellFormed != (err == nil) {
			t.Fatalf("WalkTLSRecords(%x) = %v, DecodeTLSRecords error %v", data, wellFormed, err)
		}
		if len(walked) != len(recs) {
			t.Fatalf("walked %d records, decoded %d", len(walked), len(recs))
		}
		for i, r := range recs {
			if walked[i].Type != r.Type || !bytes.Equal(walked[i].Payload, r.Payload) {
				t.Fatalf("record %d: walked %+v, decoded %+v", i, walked[i], r)
			}
			checkHandshakeWalk(t, r.Payload)
		}
		checkHandshakeWalk(t, data)
		wantCH, errCH := ParseClientHello(data)
		sni, ok := helloSNI(data)
		if ok != (errCH == nil) || ok && string(sni) != wantCH.ServerName {
			t.Fatalf("helloSNI(%x) = %q, %v; ParseClientHello %+v, %v", data, sni, ok, wantCH, errCH)
		}
		want, wantOK := clientHelloByDecoders(data)
		if sni, ok := ClientHelloSNI(data); ok != wantOK || string(sni) != want {
			t.Fatalf("ClientHelloSNI(%x) = %q, %v; decoders %q, %v", data, sni, ok, want, wantOK)
		}
	})
}

// checkHandshakeWalk holds WalkTLSHandshakes to DecodeTLSHandshakes on one
// handshake payload.
func checkHandshakeWalk(t *testing.T, payload []byte) {
	t.Helper()
	msgs, err := DecodeTLSHandshakes(payload)
	var walked []TLSHandshake
	framed := WalkTLSHandshakes(payload, func(typ uint8, body []byte) {
		walked = append(walked, TLSHandshake{Type: typ, Body: body})
	})
	if framed != (err == nil) {
		t.Fatalf("WalkTLSHandshakes(%x) = %v, DecodeTLSHandshakes error %v", payload, framed, err)
	}
	if !framed {
		return
	}
	if len(walked) != len(msgs) {
		t.Fatalf("walked %d messages, decoded %d", len(walked), len(msgs))
	}
	for i, m := range msgs {
		if walked[i].Type != m.Type || !bytes.Equal(walked[i].Body, m.Body) {
			t.Fatalf("message %d: walked %+v, decoded %+v", i, walked[i], m)
		}
		if m.Type == TLSHandshakeServerHello {
			_, _ = parseServerHello(m.Body)
		}
	}
}

// FuzzDecodeQUIC holds QUICInitialSNI to DecodeQUICInitial and the
// Initial's SNI: the same verdict and the same server name.
func FuzzDecodeQUIC(f *testing.F) {
	hs, _ := (&ClientHello{ServerName: "quic.example"}).AppendBinary(nil)
	ini, _ := (&QUICInitial{Version: QUICVersion1, DCID: []byte{1, 2, 3, 4}, CryptoPayload: hs}).AppendBinary(nil)
	f.Add(ini)
	addCuts(f, newSynthPayloads(f).quicInitial)
	// The ClientHello split over two CRYPTO frames, then a PING.
	frames := []byte{0, quicFrameCrypto, 0, 10}
	frames = append(frames, hs[:10]...)
	frames = appendVarint(append(frames, quicFrameCrypto, 10), uint64(len(hs)-10))
	frames = append(frames, hs[10:]...)
	frames = append(frames, 1)
	split := append([]byte{0xc0, 0, 0, 0, 1, 0, 0, 0}, appendVarint(nil, uint64(len(frames)))...)
	f.Add(append(split, frames...))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQUICInitial(data)
		sni, ok := QUICInitialSNI(data)
		if ok != (err == nil) {
			t.Fatalf("QUICInitialSNI(%x) ok %v, DecodeQUICInitial error %v", data, ok, err)
		}
		if !ok {
			return
		}
		if want, _ := q.SNI(); string(sni) != want {
			t.Fatalf("QUICInitialSNI(%x) = %q, decoder %q", data, sni, want)
		}
	})
}

// FuzzParseHTTPRequest holds HTTPRequestHost to ParseHTTPRequest and Host:
// the same verdict and the same host.
func FuzzParseHTTPRequest(f *testing.F) {
	f.Add([]byte("GET /x HTTP/1.1\r\nHost: a.b\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.0\r\nHost: c:80\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\nHost: after.body\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nAccept: */*\r\nhOST:  [::1]:8080 \r\n"))
	addCuts(f, newSynthPayloads(f).httpRequest)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseHTTPRequest(data)
		host, ok := HTTPRequestHost(data)
		if ok != (err == nil) {
			t.Fatalf("HTTPRequestHost(%q) ok %v, ParseHTTPRequest error %v", data, ok, err)
		}
		if ok && string(host) != req.Host() {
			t.Fatalf("HTTPRequestHost(%q) = %q, ParseHTTPRequest %q", data, host, req.Host())
		}
	})
}

func FuzzDecodeRTP(f *testing.F) {
	raw, _ := (&RTP{PayloadType: 96, Sequence: 7, CSRC: []uint32{1}}).AppendBinary(nil)
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = LooksLikeRTP(data)
	})
}
