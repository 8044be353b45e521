package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// parseServerHello parses a ServerHello handshake body: the reference
// the encoder's round trip and the handshake fuzzer check against.
func parseServerHello(body []byte) (*ServerHello, error) {
	sh := &ServerHello{}
	if len(body) < 35 {
		return nil, ErrTruncated
	}
	sh.Version = binary.BigEndian.Uint16(body[0:2])
	copy(sh.Random[:], body[2:34])
	off := 34
	sidLen := int(body[off])
	off++
	if off+sidLen+2 > len(body) {
		return nil, ErrTruncated
	}
	sh.SessionID = append([]byte(nil), body[off:off+sidLen]...)
	off += sidLen
	sh.CipherSuite = binary.BigEndian.Uint16(body[off : off+2])
	return sh, nil
}

func TestClientHelloSNIRoundTrip(t *testing.T) {
	ch := &ClientHello{Version: TLSVersion12, ServerName: "edge.whatsapp.net"}
	ch.Random[0] = 0xaa
	msg, err := ch.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := DecodeTLSHandshakes(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Type != TLSHandshakeClientHello {
		t.Fatalf("handshake framing: %+v", msgs)
	}
	got, err := ParseClientHello(msgs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerName != "edge.whatsapp.net" {
		t.Fatalf("SNI %q", got.ServerName)
	}
	if got.Random[0] != 0xaa || got.Version != TLSVersion12 {
		t.Fatal("fields lost in round trip")
	}
}

func TestClientHelloWithoutSNI(t *testing.T) {
	ch := &ClientHello{Version: TLSVersion12}
	msg, err := ch.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	msgs, _ := DecodeTLSHandshakes(msg)
	got, err := ParseClientHello(msgs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerName != "" {
		t.Fatalf("phantom SNI %q", got.ServerName)
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{Version: TLSVersion12, CipherSuite: 0xc02f, SessionID: []byte{1, 2, 3}}
	msg, err := sh.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := DecodeTLSHandshakes(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseServerHello(msgs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.CipherSuite != 0xc02f || !bytes.Equal(got.SessionID, []byte{1, 2, 3}) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestTLSRecordFraming(t *testing.T) {
	ch := &ClientHello{Version: TLSVersion12, ServerName: "x.test"}
	hs, _ := ch.AppendBinary(nil)
	rec := &TLSRecord{Type: TLSRecordHandshake, Version: TLSVersion12, Payload: hs}
	raw, err := rec.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	ccs, _ := (&TLSRecord{Type: TLSRecordChangeCipherSpec, Version: TLSVersion12, Payload: []byte{1}}).AppendBinary(nil)
	stream := append(append([]byte{}, raw...), ccs...)
	recs, rest, err := DecodeTLSRecords(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(rest) != 0 {
		t.Fatalf("%d records, %d rest", len(recs), len(rest))
	}
	if recs[0].Type != TLSRecordHandshake || recs[1].Type != TLSRecordChangeCipherSpec {
		t.Fatal("record types wrong")
	}
}

func TestTLSPartialRecordReturnedAsRest(t *testing.T) {
	rec, _ := (&TLSRecord{Type: TLSRecordApplicationData, Version: TLSVersion12, Payload: make([]byte, 100)}).AppendBinary(nil)
	recs, rest, err := DecodeTLSRecords(rec[:50])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || len(rest) != 50 {
		t.Fatalf("partial record mishandled: %d recs, %d rest", len(recs), len(rest))
	}
}

func TestTLSUnknownContentType(t *testing.T) {
	raw := []byte{99, 3, 3, 0, 1, 0}
	if _, _, err := DecodeTLSRecords(raw); err == nil {
		t.Fatal("unknown content type accepted")
	}
}

func TestHandshakeTruncation(t *testing.T) {
	ch := &ClientHello{ServerName: "a.b"}
	msg, _ := ch.AppendBinary(nil)
	if _, err := DecodeTLSHandshakes(msg[:3]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeTLSHandshakes(msg[:len(msg)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestParseClientHelloTruncated(t *testing.T) {
	if _, err := ParseClientHello(make([]byte, 10)); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestOpaqueHandshake(t *testing.T) {
	msg := OpaqueHandshake(TLSHandshakeCertificate, 2000)
	msgs, err := DecodeTLSHandshakes(msg)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].Type != TLSHandshakeCertificate || len(msgs[0].Body) != 2000 {
		t.Fatalf("opaque message: type %d len %d", msgs[0].Type, len(msgs[0].Body))
	}
}

func TestSNIRoundTripProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		n1 := int(a)%30 + 1
		n2 := int(b)%10 + 1
		name := string(bytes.Repeat([]byte{'s'}, n1)) + "." + string(bytes.Repeat([]byte{'d'}, n2))
		ch := &ClientHello{ServerName: name}
		msg, err := ch.AppendBinary(nil)
		if err != nil {
			return false
		}
		msgs, err := DecodeTLSHandshakes(msg)
		if err != nil {
			return false
		}
		got, err := ParseClientHello(msgs[0].Body)
		return err == nil && got.ServerName == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	r := &TLSRecord{Type: TLSRecordApplicationData, Payload: make([]byte, 1<<15)}
	if _, err := r.AppendBinary(nil); err == nil {
		t.Fatal("oversized record accepted")
	}
}
