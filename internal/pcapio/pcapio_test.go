package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRaw)
	base := time.Unix(1650000000, 123456000).UTC()
	pkts := [][]byte{{1, 2, 3}, {4}, bytes.Repeat([]byte{0xaa}, 1500)}
	for i, p := range pkts {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeRaw {
		t.Fatalf("link type %d", r.LinkType())
	}
	for i, want := range pkts {
		ts, data, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("packet %d mismatch", i)
		}
		wantTS := base.Add(time.Duration(i) * time.Second)
		if ts.Unix() != wantTS.Unix() || ts.Nanosecond()/1000 != wantTS.Nanosecond()/1000 {
			t.Fatalf("packet %d timestamp %v, want %v", i, ts, wantTS)
		}
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// linkTypeEthernet is LINKTYPE_ETHERNET, a link type the writer does not
// default to.
const linkTypeEthernet = 1

func TestEmptyCaptureIsValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, linkTypeEthernet)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != linkTypeEthernet {
		t.Fatalf("link type %d", r.LinkType())
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBigEndianAndNanos(t *testing.T) {
	// Hand-build a big-endian nanosecond capture.
	var buf bytes.Buffer
	var h [24]byte
	binary.BigEndian.PutUint32(h[0:4], magicNanos)
	binary.BigEndian.PutUint16(h[4:6], versionMajor)
	binary.BigEndian.PutUint16(h[6:8], versionMinor)
	binary.BigEndian.PutUint32(h[16:20], 65535)
	binary.BigEndian.PutUint32(h[20:24], LinkTypeRaw)
	buf.Write(h[:])
	var rec [16]byte
	binary.BigEndian.PutUint32(rec[0:4], 1000)
	binary.BigEndian.PutUint32(rec[4:8], 999)
	binary.BigEndian.PutUint32(rec[8:12], 2)
	binary.BigEndian.PutUint32(rec[12:16], 2)
	buf.Write(rec[:])
	buf.Write([]byte{7, 8})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts, data, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Unix() != 1000 || ts.Nanosecond() != 999 {
		t.Fatalf("nanosecond timestamp %v", ts)
	}
	if !bytes.Equal(data, []byte{7, 8}) {
		t.Fatal("data mismatch")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero magic accepted")
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 10))); err == nil {
		t.Fatal("truncated file header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRaw)
	if err := w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Fatal("truncated packet data accepted")
	}
}

func TestImplausibleCaptureLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRaw)
	if err := w.WritePacket(time.Unix(0, 0), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt caplen to exceed snaplen.
	binary.LittleEndian.PutUint32(raw[24+8:24+12], DefaultSnapLen+1)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Fatal("oversize caplen accepted")
	}
}

func TestOversizePacketRejected(t *testing.T) {
	w := NewWriter(io.Discard, LinkTypeRaw)
	if err := w.WritePacket(time.Unix(0, 0), make([]byte, DefaultSnapLen+1)); err == nil {
		t.Fatal("oversize packet accepted")
	}
}
