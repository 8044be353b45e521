package tstat

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleFlow() FlowRecord {
	return FlowRecord{
		Client: netip.MustParseAddr("10.1.2.3"),
		Server: netip.MustParseAddr("151.101.1.1"),
		CPort:  40000, SPort: 443,
		Proto:   ProtoHTTPS,
		Domain:  "e1.whatsapp.net",
		Start:   90 * time.Second,
		End:     95 * time.Second,
		BytesUp: 1234, BytesDown: 567890,
		PktsUp: 12, PktsDown: 420,
		First10: []time.Duration{90 * time.Second, 90*time.Second + 20*time.Millisecond},
		GroundRTT: RTTStats{Samples: 5, Min: 10 * time.Millisecond, Avg: 12 * time.Millisecond,
			Max: 20 * time.Millisecond, Std: 3 * time.Millisecond},
		SatRTT: 612 * time.Millisecond,
	}
}

func TestFlowTSVRoundTrip(t *testing.T) {
	in := []FlowRecord{sampleFlow()}
	second := sampleFlow()
	second.Proto = ProtoQUIC
	second.Domain = ""
	second.First10 = nil
	second.SatRTT = 0
	in = append(in, second)

	var buf bytes.Buffer
	if err := WriteFlows(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestFlowTSVRejectsGarbage(t *testing.T) {
	if _, err := ReadFlows(strings.NewReader("not a header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	bad := flowHeader + "\njunk\tfields\n"
	if _, err := ReadFlows(strings.NewReader(bad)); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestDNSTSVRoundTrip(t *testing.T) {
	in := []DNSRecord{
		{Client: netip.MustParseAddr("10.5.5.5"), Resolver: netip.MustParseAddr("8.8.8.8"),
			Query: "play.googleapis.com", RCode: 0, Answer: netip.MustParseAddr("142.250.1.2"),
			T: time.Hour, ResponseTime: 22 * time.Millisecond},
		{Client: netip.MustParseAddr("10.5.5.6"), Resolver: netip.MustParseAddr("114.114.114.114"),
			Query: "captive.apple.com", RCode: 3, T: 2 * time.Hour, ResponseTime: 110 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteDNS(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadDNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestRTTAccumStats(t *testing.T) {
	var a rttAccum
	if got := a.stats(); got.Samples != 0 || got.Avg != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		a.add(d)
	}
	st := a.stats()
	if st.Samples != 3 || st.Min != 10*time.Millisecond || st.Max != 30*time.Millisecond {
		t.Fatalf("stats %+v", st)
	}
	if st.Avg != 20*time.Millisecond {
		t.Fatalf("avg %v", st.Avg)
	}
	// Std of {10,20,30} ms is ~8.16 ms.
	if st.Std < 8*time.Millisecond || st.Std > 9*time.Millisecond {
		t.Fatalf("std %v", st.Std)
	}
}

func TestProtocolStrings(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtoHTTPS: "TCP/HTTPS", ProtoHTTP: "TCP/HTTP", ProtoTCPOther: "Other TCP",
		ProtoQUIC: "UDP/QUIC", ProtoRTP: "UDP/RTP", ProtoDNS: "UDP/DNS", ProtoUDPOther: "Other UDP",
	} {
		if p.String() != want {
			t.Errorf("%d: %q, want %q", p, p.String(), want)
		}
		if parseProtocol(want) != p {
			t.Errorf("parseProtocol(%q) broken", want)
		}
	}
}
