package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	clientAddr = netip.MustParseAddr("10.8.1.2")
	serverAddr = netip.MustParseAddr("142.250.10.1")
)

// encodeTCP returns the IPv4 packet ip carrying tcp carrying payload.
func encodeTCP(t testing.TB, ip *IPv4, tcp *TCP, payload []byte) []byte {
	t.Helper()
	raw, err := ip.Encode(tcp.Encode(payload))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// encodeUDP returns the IPv4 packet ip carrying u carrying payload.
func encodeUDP(t testing.TB, ip *IPv4, u *UDP, payload []byte) []byte {
	t.Helper()
	dgram, err := u.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ip.Encode(dgram)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func buildTCPPacket(t *testing.T, payload []byte, flags TCPFlags) []byte {
	t.Helper()
	return encodeTCP(t, &IPv4{TTL: 64, Protocol: ProtoTCP, Src: clientAddr, Dst: serverAddr},
		&TCP{SrcPort: 40000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: flags, Window: 65535}, payload)
}

// insertOptions returns raw with opts inserted at off, the end of the
// header whose length nibble is at lenAt, and the IPv4 total length and
// checksum fixed up.
func insertOptions(raw []byte, off, lenAt int, opts []byte) []byte {
	out := append(append(append([]byte(nil), raw[:off]...), opts...), raw[off:]...)
	if lenAt == 0 {
		out[0] += uint8(len(opts) / 4) // IHL, the low nibble
	} else {
		out[lenAt] += uint8(len(opts)/4) << 4 // data offset, the high nibble
	}
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
	out[10], out[11] = 0, 0
	ihl := int(out[0]&0x0f) * 4
	binary.BigEndian.PutUint16(out[10:12], headerChecksum(out[:ihl]))
	return out
}

func TestIPv4TCPRoundTrip(t *testing.T) {
	payload := []byte("hello satellite")
	raw := buildTCPPacket(t, payload, FlagPSH|FlagACK)
	if total := binary.BigEndian.Uint16(raw[2:4]); int(total) != len(raw) {
		t.Fatalf("IP length %d, raw %d", total, len(raw))
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.IP.Src != clientAddr || p.IP.Dst != serverAddr || p.IP.TTL != 64 {
		t.Fatalf("bad IP header: %+v", p.IP)
	}
	tcp := p.TCP
	if tcp == nil || p.UDP != nil || tcp.SrcPort != 40000 || tcp.DstPort != 443 || tcp.Seq != 1000 || tcp.Ack != 2000 || tcp.Window != 65535 {
		t.Fatalf("bad TCP header: %+v", tcp)
	}
	if !tcp.Flags.Has(FlagPSH | FlagACK) {
		t.Fatalf("flags %v", tcp.Flags)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload %q, want %q", p.Payload, payload)
	}
}

func TestIPv4UDPRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	raw := encodeUDP(t, &IPv4{TTL: 64, Protocol: ProtoUDP, Src: serverAddr, Dst: clientAddr},
		&UDP{SrcPort: 53, DstPort: 5353}, payload)
	if length := binary.BigEndian.Uint16(raw[24:26]); int(length) != 8+len(payload) {
		t.Fatalf("UDP length %d", length)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	udp := p.UDP
	if udp == nil || p.TCP != nil || udp.SrcPort != 53 || udp.DstPort != 5353 {
		t.Fatalf("bad UDP header: %+v", udp)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	raw := buildTCPPacket(t, nil, FlagSYN)
	raw[10] ^= 0xff // corrupt checksum
	if _, err := Decode(raw); err == nil {
		t.Fatal("corrupted checksum accepted")
	}
}

func TestIPv4HeaderCorruption(t *testing.T) {
	raw := buildTCPPacket(t, []byte("x"), FlagACK)
	cases := map[string]func([]byte) []byte{
		"short":       func(b []byte) []byte { return b[:10] },
		"bad version": func(b []byte) []byte { b[0] = 6<<4 | 5; return b },
		"bad ihl":     func(b []byte) []byte { b[0] = 4<<4 | 3; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-1] },
	}
	for name, corrupt := range cases {
		c := corrupt(append([]byte(nil), raw...))
		if _, err := Decode(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestIPv4Options: Decode skips IPv4 options and finds the transport
// header and payload behind them.
func TestIPv4Options(t *testing.T) {
	raw := encodeUDP(t, &IPv4{TTL: 1, Protocol: ProtoUDP, Src: clientAddr, Dst: serverAddr},
		&UDP{SrcPort: 1, DstPort: 2}, []byte("dns"))
	raw = insertOptions(raw, 20, 0, []byte{1, 1, 1, 1})
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil || p.UDP.SrcPort != 1 || p.UDP.DstPort != 2 || !bytes.Equal(p.Payload, []byte("dns")) {
		t.Fatalf("behind options: %+v %q", p.UDP, p.Payload)
	}
	raw[10] ^= 0xff // the checksum covers the options
	if _, err := Decode(raw); err == nil {
		t.Fatal("corrupted checksum over options accepted")
	}
}

func TestTCPFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SA" {
		t.Fatalf("flags string %q, want SA", s)
	}
	if s := TCPFlags(0).String(); s != "-" {
		t.Fatalf("zero flags string %q", s)
	}
}

// TestTCPOptionsRoundTrip: Decode skips TCP options, and the payload
// starts at the data offset.
func TestTCPOptionsRoundTrip(t *testing.T) {
	opts := []byte{2, 4, 5, 180, 1, 1, 1, 0} // MSS + padding
	raw := encodeTCP(t, &IPv4{TTL: 64, Protocol: ProtoTCP, Src: clientAddr, Dst: serverAddr},
		&TCP{SrcPort: 1, DstPort: 2, Seq: 9, Flags: FlagSYN}, []byte("d"))
	raw = insertOptions(raw, 40, 32, opts)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil || p.TCP.Seq != 9 || p.TCP.Flags != FlagSYN || !bytes.Equal(p.Payload, []byte("d")) {
		t.Fatalf("behind options: %+v %q", p.TCP, p.Payload)
	}
	raw[32] = 4 << 4 // data offset 16: below the header
	if _, err := Decode(raw); err == nil {
		t.Fatal("data offset below 20 accepted")
	}
}

func TestFiveTupleCanonicalSymmetry(t *testing.T) {
	a := FiveTuple{Proto: ProtoTCP,
		Src: Endpoint{Addr: clientAddr, Port: 40000},
		Dst: Endpoint{Addr: serverAddr, Port: 443}}
	b := a.Reverse()
	ca, swapped := a.Canonical()
	cb, swappedB := b.Canonical()
	if ca != cb {
		t.Fatalf("canonical forms differ: %v vs %v", ca, cb)
	}
	if swapped == swappedB {
		t.Fatal("exactly one direction should be swapped")
	}
}

func TestPacketTuple(t *testing.T) {
	p, err := Decode(buildTCPPacket(t, nil, FlagSYN))
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := p.Tuple()
	if !ok {
		t.Fatal("no tuple")
	}
	if ft.Proto != ProtoTCP || ft.Src.Port != 40000 || ft.Dst.Port != 443 || ft.Src.Addr != clientAddr {
		t.Fatalf("tuple %v", ft)
	}
	raw, err := (&IPv4{TTL: 64, Protocol: 47, Src: clientAddr, Dst: serverAddr}).Encode([]byte("gre"))
	if err != nil {
		t.Fatal(err)
	}
	if p, err = Decode(raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Tuple(); ok || !bytes.Equal(p.Payload, []byte("gre")) {
		t.Fatalf("protocol 47: tuple ok %v, payload %q", ok, p.Payload)
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(src, dst [4]byte, ttl uint8, sport, dport uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		ip := &IPv4{TTL: ttl, Protocol: ProtoUDP, Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst)}
		raw := encodeUDP(t, ip, &UDP{SrcPort: sport, DstPort: dport}, payload)
		p, err := Decode(raw)
		if err != nil {
			return false
		}
		return p.IP == *ip && *p.UDP == (UDP{SrcPort: sport, DstPort: dport}) && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBinaryAppends: every append-form encoder leaves what b holds
// in place and appends exactly the bytes it writes into an empty buffer,
// whether b has room to spare or must grow.
func TestAppendBinaryAppends(t *testing.T) {
	q := []DNSQuestion{{Name: "www.example.org", Type: DNSTypeA, Class: DNSClassIN}}
	for _, c := range []struct {
		name string
		enc  interface{ AppendBinary([]byte) ([]byte, error) }
	}{
		{"DNS", &DNS{ID: 7, QR: true, RA: true, Questions: q, Answers: []DNSRR{
			{Name: "www.example.org", Type: DNSTypeCNAME, Class: DNSClassIN, TTL: 60, Target: "edge.example.net"},
			{Name: "edge.example.net", Type: DNSTypeA, Class: DNSClassIN, TTL: 60, Addr: serverAddr}}}},
		{"ClientHello", &ClientHello{Version: TLSVersion12, SessionID: []byte{1, 2}, ServerName: "www.example.org"}},
		{"ServerHello", &ServerHello{Version: TLSVersion12, CipherSuite: 0xc02f}},
		{"TLSRecord", &TLSRecord{Type: TLSRecordHandshake, Version: TLSVersion12, Payload: []byte{1, 2, 3}}},
		{"QUICInitial", &QUICInitial{Version: QUICVersion1, DCID: []byte{1, 2, 3, 4}, Token: []byte{9}, CryptoPayload: make([]byte, 100)}},
		{"HTTPRequest", &HTTPRequest{Headers: []HTTPHeader{{Name: "Host", Value: "www.example.org"}}}},
		{"RTP", &RTP{PayloadType: 111, Sequence: 3, CSRC: []uint32{5}}},
	} {
		want, err := c.enc.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prefix := []byte("prefix")
		for _, b := range [][]byte{prefix[:len(prefix):len(prefix)], append(make([]byte, 0, 512), prefix...)} {
			got, err := c.enc.AppendBinary(b)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%s onto %d spare bytes: %x, want %x after the prefix", c.name, cap(b)-len(b), got, want)
			}
		}
	}
}
