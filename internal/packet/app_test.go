package packet

import (
	"bytes"
	"testing"
)

func TestHTTPRequestRoundTrip(t *testing.T) {
	req := &HTTPRequest{Method: "GET", Target: "/update.bin", Version: "HTTP/1.1",
		Headers: []HTTPHeader{{"Host", "download.sky.com"}, {"User-Agent", "skybox/1.0"}}}
	raw, _ := req.AppendBinary(nil)
	got, err := ParseHTTPRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != "/update.bin" {
		t.Fatalf("request line: %+v", got)
	}
	if got.Host() != "download.sky.com" {
		t.Fatalf("host %q", got.Host())
	}
}

func TestHTTPHostWithPort(t *testing.T) {
	req := &HTTPRequest{Headers: []HTTPHeader{{"host", "example.com:8080"}}}
	if req.Host() != "example.com" {
		t.Fatalf("host %q, want port stripped", req.Host())
	}
}

func TestHTTPHostMissing(t *testing.T) {
	req := &HTTPRequest{Headers: []HTTPHeader{{"Accept", "*/*"}}}
	if req.Host() != "" {
		t.Fatal("phantom host")
	}
}

func TestHTTPPartialHead(t *testing.T) {
	req := &HTTPRequest{Method: "POST", Target: "/", Headers: []HTTPHeader{
		{"Host", "api.example.com"}, {"Content-Type", "application/json"}}}
	raw, _ := req.AppendBinary(nil)
	// Cut mid-way through the second header, as a first segment would.
	got, err := ParseHTTPRequest(raw[:len(raw)-10])
	if err != nil {
		t.Fatal(err)
	}
	if got.Host() != "api.example.com" {
		t.Fatalf("host from partial head %q", got.Host())
	}
	if len(got.Headers) != 1 {
		t.Fatalf("partial header line half-parsed: %+v", got.Headers)
	}
}

func TestHTTPHeadCutInsideHostValue(t *testing.T) {
	// When the cut lands inside the Host value, a truncated name must not
	// be reported: better no domain than a wrong one.
	req := &HTTPRequest{Method: "GET", Target: "/", Headers: []HTTPHeader{{"Host", "api.example.com"}}}
	raw, _ := req.AppendBinary(nil)
	got, err := ParseHTTPRequest(raw[:len(raw)-6])
	if err != nil {
		t.Fatal(err)
	}
	if got.Host() != "" {
		t.Fatalf("truncated host reported as %q", got.Host())
	}
}

func TestLooksLikeHTTPRequest(t *testing.T) {
	if !LooksLikeHTTPRequest([]byte("GET / HTTP/1.1\r\n")) {
		t.Fatal("GET not recognized")
	}
	if LooksLikeHTTPRequest([]byte{0x16, 0x03, 0x03}) {
		t.Fatal("TLS bytes recognized as HTTP")
	}
	if LooksLikeHTTPRequest([]byte("GETX / HTTP/1.1")) {
		t.Fatal("bad method recognized")
	}
}

func TestHTTPNotARequest(t *testing.T) {
	if _, err := ParseHTTPRequest([]byte("HTTP/1.1 200 OK\r\n")); err == nil {
		t.Fatal("response parsed as request")
	}
}

func TestQUICInitialRoundTrip(t *testing.T) {
	ch := &ClientHello{Version: TLSVersion12, ServerName: "www.youtube.com"}
	hs, err := ch.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := &QUICInitial{Version: QUICVersion1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		SCID: []byte{9, 9}, CryptoPayload: hs}
	raw, err := q.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !IsQUICLongHeader(raw) {
		t.Fatal("long header not recognized")
	}
	got, err := DecodeQUICInitial(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != QUICVersion1 || len(got.DCID) != 8 {
		t.Fatalf("header fields: %+v", got)
	}
	sni, err := got.SNI()
	if err != nil {
		t.Fatal(err)
	}
	if sni != "www.youtube.com" {
		t.Fatalf("SNI %q", sni)
	}
}

func TestQUICInitialWithToken(t *testing.T) {
	q := &QUICInitial{Version: QUICVersion1, DCID: []byte{1}, Token: make([]byte, 70)}
	raw, err := q.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQUICInitial(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Token) != 70 {
		t.Fatalf("token length %d", len(got.Token))
	}
}

func TestQUICRejectsShortHeader(t *testing.T) {
	raw := []byte{0x40, 1, 2, 3, 4, 5, 6, 7}
	if _, err := DecodeQUICInitial(raw); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestQUICRejectsOversizeCID(t *testing.T) {
	q := &QUICInitial{Version: 1, DCID: make([]byte, 21)}
	if _, err := q.AppendBinary(nil); err == nil {
		t.Fatal("oversize DCID accepted")
	}
}

func TestQUICVarint(t *testing.T) {
	for _, v := range []uint64{0, 63, 64, 16383, 16384, 1<<30 - 1, 1 << 30, 1 << 40} {
		raw := appendVarint(nil, v)
		got, off, err := readVarint(raw, 0)
		if err != nil || got != v || off != len(raw) {
			t.Fatalf("varint %d round trip: got %d off %d err %v", v, got, off, err)
		}
	}
}

func TestRTPRoundTrip(t *testing.T) {
	r := &RTP{Marker: true, PayloadType: 111, Sequence: 4242, Timestamp: 90000, SSRC: 0xdeadbeef,
		CSRC: []uint32{1, 2}}
	raw, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// RFC 3550 §5.1: V=2 and CC=2; M and PT=111; sequence; timestamp;
	// SSRC; the two CSRCs.
	want := []byte{0x82, 0xef, 0x10, 0x92, 0, 0x01, 0x5f, 0x90, 0xde, 0xad, 0xbe, 0xef,
		0, 0, 0, 1, 0, 0, 0, 2}
	if !bytes.Equal(raw, want) {
		t.Fatalf("header % x, want % x", raw, want)
	}
}

func TestRTPValidation(t *testing.T) {
	if _, err := (&RTP{PayloadType: 200}).AppendBinary(nil); err == nil {
		t.Fatal("payload type > 127 accepted")
	}
	if _, err := (&RTP{CSRC: make([]uint32, 16)}).AppendBinary(nil); err == nil {
		t.Fatal("16 CSRCs accepted")
	}
	if LooksLikeRTP([]byte{0x80}) {
		t.Fatal("truncated RTP accepted")
	}
	if LooksLikeRTP(make([]byte, 12)) {
		t.Fatal("version 0 accepted")
	}
}

func TestLooksLikeRTP(t *testing.T) {
	r := &RTP{PayloadType: 96, Sequence: 1}
	raw, _ := r.AppendBinary(nil)
	if !LooksLikeRTP(raw) {
		t.Fatal("RTP not recognized")
	}
	if LooksLikeRTP([]byte("GET / HTTP/1.1\r\n")) {
		t.Fatal("HTTP recognized as RTP")
	}
	// Version 2 but implausible payload type (between static and dynamic).
	odd := append([]byte{}, raw...)
	odd[1] = 80
	if LooksLikeRTP(odd) {
		t.Fatal("implausible payload type recognized")
	}
}
