package packet

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestDNSQueryRoundTrip(t *testing.T) {
	q := &DNS{ID: 0x1234, RD: true,
		Questions: []DNSQuestion{{Name: "play.googleapis.com", Type: DNSTypeA, Class: DNSClassIN}}}
	raw, err := q.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || !got.RD || got.QR {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "play.googleapis.com" {
		t.Fatalf("question mismatch: %+v", got.Questions)
	}
}

func TestDNSResponseRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("172.217.16.142")
	m := &DNS{ID: 9, QR: true, RA: true,
		Questions: []DNSQuestion{{Name: "google.com", Type: DNSTypeA, Class: DNSClassIN}},
		Answers: []DNSRR{
			{Name: "google.com", Type: DNSTypeCNAME, Class: DNSClassIN, TTL: 300, Target: "www.google.com"},
			{Name: "www.google.com", Type: DNSTypeA, Class: DNSClassIN, TTL: 60, Addr: addr},
		}}
	raw, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.QR || !got.RA || got.RCode != 0 {
		t.Fatalf("flags mismatch: %+v", got)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("%d answers", len(got.Answers))
	}
	if got.Answers[0].Target != "www.google.com" {
		t.Fatalf("CNAME target %q", got.Answers[0].Target)
	}
	if got.Answers[1].Addr != addr {
		t.Fatalf("A record addr %v", got.Answers[1].Addr)
	}
}

func TestDNSAAAARoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("2a00:1450:4003::8a")
	m := &DNS{ID: 1, QR: true,
		Answers: []DNSRR{{Name: "x.example", Type: DNSTypeAAAA, Class: DNSClassIN, TTL: 5, Addr: addr}}}
	raw, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Addr != addr {
		t.Fatalf("AAAA addr %v", got.Answers[0].Addr)
	}
}

func TestDNSCompressionPointers(t *testing.T) {
	// Hand-build a response using a compression pointer for the answer
	// name: question at offset 12, answer name is a pointer to it.
	var raw []byte
	raw = append(raw, 0x00, 0x07) // ID
	raw = append(raw, 0x81, 0x80) // QR+RD+RA
	raw = append(raw, 0, 1, 0, 1, 0, 0, 0, 0)
	name, _ := appendName(nil, "cdn.example.com")
	raw = append(raw, name...)
	raw = append(raw, 0, 1, 0, 1) // A IN
	raw = append(raw, 0xc0, 12)   // pointer to offset 12
	raw = append(raw, 0, 1, 0, 1) // A IN
	raw = append(raw, 0, 0, 0, 60)
	raw = append(raw, 0, 4, 1, 2, 3, 4)
	got, err := DecodeDNS(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "cdn.example.com" {
		t.Fatalf("compressed name %q", got.Answers[0].Name)
	}
	if got.Answers[0].Addr != netip.AddrFrom4([4]byte{1, 2, 3, 4}) {
		t.Fatalf("addr %v", got.Answers[0].Addr)
	}
}

func TestDNSPointerLoopRejected(t *testing.T) {
	var raw []byte
	raw = append(raw, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	// A name that is a pointer to itself would need a forward reference;
	// build two pointers at 12 and 14 pointing at each other.
	raw = append(raw, 0xc0, 14, 0xc0, 12)
	raw = append(raw, 0, 1, 0, 1)
	if _, err := DecodeDNS(raw); err == nil {
		t.Fatal("pointer loop accepted")
	}
}

func TestDNSMalformedInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":                 {},
		"short header":          {0, 1, 2},
		"counted but truncated": {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
	}
	for name, raw := range cases {
		if _, err := DecodeDNS(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDNSBadLabels(t *testing.T) {
	if _, err := appendName(nil, strings.Repeat("a", 64)+".com"); err == nil {
		t.Fatal("64-byte label accepted")
	}
	if _, err := appendName(nil, "a..com"); err == nil {
		t.Fatal("empty label accepted")
	}
}

// appendNameSplit is the strings.Split encoder appendName replaced, kept as
// its reference.
func appendNameSplit(out []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, fmt.Errorf("dns: bad label in %q", name)
			}
			out = append(out, byte(len(label)))
			out = append(out, label...)
		}
	}
	return append(out, 0), nil
}

func TestAppendNameMatchesSplit(t *testing.T) {
	for _, name := range []string{"", ".", "a", "a.", "a..", ".a", "a..b", "cdn.example.com",
		strings.Repeat("x", 63), strings.Repeat("x", 64), strings.Repeat("x", 63) + ".com", "com." + strings.Repeat("x", 64)} {
		got, gotErr := appendName([]byte{9}, name)
		want, wantErr := appendNameSplit([]byte{9}, name)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Errorf("appendName(%q) = %v, %v; strings.Split version %v, %v", name, got, gotErr, want, wantErr)
		}
	}
}

func TestDNSRootName(t *testing.T) {
	raw, err := appendName(nil, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 || raw[0] != 0 {
		t.Fatalf("root name encoding %v", raw)
	}
}

func TestDNSARecordNeedsV4(t *testing.T) {
	m := &DNS{Answers: []DNSRR{{Name: "x", Type: DNSTypeA, Addr: netip.MustParseAddr("::1")}}}
	if _, err := m.AppendBinary(nil); err == nil {
		t.Fatal("A record with IPv6 address accepted")
	}
}

func TestDNSNameRoundTripProperty(t *testing.T) {
	f := func(labels [3]uint8) bool {
		parts := make([]string, 0, 3)
		for _, l := range labels {
			n := int(l)%20 + 1
			parts = append(parts, strings.Repeat("x", n))
		}
		name := strings.Join(parts, ".")
		raw, err := appendName(nil, name)
		if err != nil {
			return false
		}
		got, _, err := readName(raw, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDNSOverUDPPacket(t *testing.T) {
	q := &DNS{ID: 77, RD: true, Questions: []DNSQuestion{{Name: "whatsapp.net", Type: DNSTypeA, Class: DNSClassIN}}}
	payload, err := q.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeUDP(t, &IPv4{TTL: 64, Protocol: ProtoUDP, Src: clientAddr, Dst: serverAddr},
		&UDP{SrcPort: 33333, DstPort: 53}, payload)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(p.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 77 || got.Questions[0].Name != "whatsapp.net" {
		t.Fatalf("round trip through UDP failed: %+v", got)
	}
}
