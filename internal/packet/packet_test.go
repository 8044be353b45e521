package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	clientAddr = netip.MustParseAddr("10.8.1.2")
	serverAddr = netip.MustParseAddr("142.250.10.1")
)

func buildTCPPacket(t *testing.T, payload []byte, flags TCPFlags) []byte {
	t.Helper()
	raw, err := Serialize(payload,
		&IPv4{TTL: 64, Protocol: ProtoTCP, Src: clientAddr, Dst: serverAddr, ID: 7},
		&TCP{SrcPort: 40000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: flags, Window: 65535},
	)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestIPv4TCPRoundTrip(t *testing.T) {
	payload := []byte("hello satellite")
	raw := buildTCPPacket(t, payload, FlagPSH|FlagACK)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	ip := p.IPv4Layer()
	if ip == nil || ip.Src != clientAddr || ip.Dst != serverAddr {
		t.Fatalf("bad IP layer: %+v", ip)
	}
	if int(ip.Length) != len(raw) {
		t.Fatalf("IP length %d, raw %d", ip.Length, len(raw))
	}
	tcp := p.TCPLayer()
	if tcp == nil || tcp.SrcPort != 40000 || tcp.DstPort != 443 || tcp.Seq != 1000 || tcp.Ack != 2000 {
		t.Fatalf("bad TCP layer: %+v", tcp)
	}
	if !tcp.Flags.Has(FlagPSH | FlagACK) {
		t.Fatalf("flags %v", tcp.Flags)
	}
	if !bytes.Equal(p.AppPayload(), payload) {
		t.Fatalf("payload %q, want %q", p.AppPayload(), payload)
	}
}

func TestIPv4UDPRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	raw, err := Serialize(payload,
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: serverAddr, Dst: clientAddr},
		&UDP{SrcPort: 53, DstPort: 5353},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	udp := p.UDPLayer()
	if udp == nil || udp.SrcPort != 53 || udp.DstPort != 5353 {
		t.Fatalf("bad UDP layer: %+v", udp)
	}
	if int(udp.Length) != 8+len(payload) {
		t.Fatalf("UDP length %d", udp.Length)
	}
	if !bytes.Equal(p.AppPayload(), payload) {
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

func TestIPv4Options(t *testing.T) {
	ip := &IPv4{TTL: 1, Protocol: ProtoUDP, Src: clientAddr, Dst: serverAddr, Options: []byte{1, 1, 1, 1}}
	raw, err := Serialize(nil, ip, &UDP{SrcPort: 1, DstPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if _, err := got.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Options, []byte{1, 1, 1, 1}) {
		t.Fatalf("options %v", got.Options)
	}
	bad := &IPv4{TTL: 1, Protocol: ProtoUDP, Src: clientAddr, Dst: serverAddr, Options: []byte{1, 2, 3}}
	if _, err := Serialize(nil, bad, &UDP{}); err == nil {
		t.Fatal("unaligned options accepted")
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

func TestTCPOptionsRoundTrip(t *testing.T) {
	opts := []byte{2, 4, 5, 180, 1, 1, 1, 0} // MSS + padding
	raw, err := Serialize([]byte("d"),
		&IPv4{TTL: 64, Protocol: ProtoTCP, Src: clientAddr, Dst: serverAddr},
		&TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN, Options: opts},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.TCPLayer().Options, opts) {
		t.Fatal("TCP options mismatch")
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

func TestTupleOf(t *testing.T) {
	raw := buildTCPPacket(t, nil, FlagSYN)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := TupleOf(p)
	if !ok {
		t.Fatal("no tuple")
	}
	if ft.Proto != ProtoTCP || ft.Src.Port != 40000 || ft.Dst.Port != 443 {
		t.Fatalf("tuple %v", ft)
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	big := b.Prepend(1000) // forces growth
	for i := range big {
		big[i] = byte(i)
	}
	if b.Len() != 1000 {
		t.Fatalf("len %d", b.Len())
	}
	if b.Bytes()[999] != byte(999%256) {
		t.Fatal("growth lost data")
	}
	b.Prepend(8)
	if b.Len() != 1008 {
		t.Fatalf("len after second prepend %d", b.Len())
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(src, dst [4]byte, tos, ttl uint8, id uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		ip := &IPv4{TOS: tos, TTL: ttl, ID: id, Protocol: ProtoUDP,
			Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst)}
		raw, err := Serialize(payload, ip, &UDP{SrcPort: 9, DstPort: 10})
		if err != nil {
			return false
		}
		var got IPv4
		rest, err := got.Decode(raw)
		if err != nil {
			return false
		}
		var udp UDP
		inner, err := udp.Decode(rest)
		if err != nil {
			return false
		}
		return got.Src == ip.Src && got.Dst == ip.Dst && got.TOS == tos &&
			got.TTL == ttl && got.ID == id && bytes.Equal(inner, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
