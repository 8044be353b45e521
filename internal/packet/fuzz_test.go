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

func FuzzDecodeDNS(f *testing.F) {
	m := &DNS{ID: 1, RD: true, Questions: []DNSQuestion{{Name: "www.example.com", Type: DNSTypeA, Class: DNSClassIN}}}
	raw, _ := m.Encode()
	f.Add(raw)
	// A compressed response.
	var comp []byte
	comp = append(comp, 0, 7, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0)
	name, _ := appendName(nil, "a.b")
	comp = append(comp, name...)
	comp = append(comp, 0, 1, 0, 1, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4)
	f.Add(comp)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeDNS(data)
	})
}

func FuzzDecodeTLS(f *testing.F) {
	ch, _ := (&ClientHello{ServerName: "fuzz.example"}).Encode()
	rec, _ := (&TLSRecord{Type: TLSRecordHandshake, Version: TLSVersion12, Payload: ch}).Encode()
	f.Add(rec)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, err := DecodeTLSRecords(data)
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Type != TLSRecordHandshake {
				continue
			}
			msgs, err := DecodeTLSHandshakes(r.Payload)
			if err != nil {
				continue
			}
			for _, m := range msgs {
				switch m.Type {
				case TLSHandshakeClientHello:
					_, _ = ParseClientHello(m.Body)
				case TLSHandshakeServerHello:
					_, _ = parseServerHello(m.Body)
				}
			}
		}
	})
}

func FuzzDecodeQUIC(f *testing.F) {
	hs, _ := (&ClientHello{ServerName: "quic.example"}).Encode()
	ini, _ := (&QUICInitial{Version: QUICVersion1, DCID: []byte{1, 2, 3, 4}, CryptoPayload: hs}).Encode()
	f.Add(ini)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQUICInitial(data)
		if err == nil && q != nil {
			_, _ = q.SNI()
		}
	})
}

func FuzzParseHTTPRequest(f *testing.F) {
	f.Add([]byte("GET /x HTTP/1.1\r\nHost: a.b\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.0\r\nHost: c:80\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseHTTPRequest(data)
		if err == nil {
			_ = req.Host()
		}
	})
}

func FuzzDecodeRTP(f *testing.F) {
	raw, _ := (&RTP{PayloadType: 96, Sequence: 7, CSRC: []uint32{1}}).Encode()
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = LooksLikeRTP(data)
	})
}
