// Package pcapio reads and writes classic pcap capture files (the libpcap
// format, microsecond or nanosecond variant) using only the standard
// library. The probe binaries use it to persist and replay synthesized
// packet traces.
//
// Traces are written with LINKTYPE_RAW (101): packets start directly at the
// IPv4 header, matching what package packet decodes.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

const (
	magicMicros = 0xa1b2c3d4
	magicNanos  = 0xa1b23c4d

	versionMajor = 2
	versionMinor = 4

	// LinkTypeRaw is LINKTYPE_RAW: packets begin with the IP header.
	LinkTypeRaw = 101
)

// DefaultSnapLen is the snapshot length written into file headers.
const DefaultSnapLen = 262144

// Writer writes a pcap file with nanosecond timestamps (magic 0xa1b23c4d),
// so a replay sees exactly the times a simulated capture was stamped with.
type Writer struct {
	w        *bufio.Writer
	linkType uint32
	wroteHdr bool
}

// NewWriter creates a Writer emitting the given link type.
func NewWriter(w io.Writer, linkType uint32) *Writer {
	return &Writer{w: bufio.NewWriter(w), linkType: linkType}
}

func (w *Writer) writeHeader() error {
	var h [24]byte
	binary.LittleEndian.PutUint32(h[0:4], magicNanos)
	binary.LittleEndian.PutUint16(h[4:6], versionMajor)
	binary.LittleEndian.PutUint16(h[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(h[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(h[20:24], w.linkType)
	_, err := w.w.Write(h[:])
	return err
}

// WritePacket appends one packet with the given capture timestamp.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if !w.wroteHdr {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wroteHdr = true
	}
	if len(data) > DefaultSnapLen {
		return fmt.Errorf("pcapio: packet length %d exceeds snaplen", len(data))
	}
	var h [16]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(h[4:8], uint32(ts.Nanosecond()))
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(h[12:16], uint32(len(data)))
	if _, err := w.w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Flush flushes buffered output. Call it before closing the underlying file.
func (w *Writer) Flush() error {
	if !w.wroteHdr {
		// An empty capture is still a valid file with just the header.
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wroteHdr = true
	}
	return w.w.Flush()
}

// Reader reads a pcap file, accepting both endiannesses and both
// microsecond and nanosecond variants.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	snapLen  uint32
}

// NewReader parses the file header and prepares to iterate packets.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var h [24]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	rd := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(h[0:4])
	magicBE := binary.BigEndian.Uint32(h[0:4])
	switch {
	case magicLE == magicMicros:
		rd.order = binary.LittleEndian
	case magicLE == magicNanos:
		rd.order, rd.nanos = binary.LittleEndian, true
	case magicBE == magicMicros:
		rd.order = binary.BigEndian
	case magicBE == magicNanos:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcapio: bad magic %#x", magicLE)
	}
	if major := rd.order.Uint16(h[4:6]); major != versionMajor {
		return nil, fmt.Errorf("pcapio: unsupported version %d", major)
	}
	rd.snapLen = rd.order.Uint32(h[16:20])
	rd.linkType = rd.order.Uint32(h[20:24])
	return rd, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Next returns the next packet and its timestamp, or io.EOF at the end.
func (r *Reader) Next() (time.Time, []byte, error) {
	var h [16]byte
	if _, err := io.ReadFull(r.r, h[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return time.Time{}, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return time.Time{}, nil, fmt.Errorf("pcapio: truncated record header")
		}
		return time.Time{}, nil, err
	}
	sec := r.order.Uint32(h[0:4])
	sub := r.order.Uint32(h[4:8])
	capLen := r.order.Uint32(h[8:12])
	origLen := r.order.Uint32(h[12:16])
	if capLen > r.snapLen || capLen > origLen {
		return time.Time{}, nil, fmt.Errorf("pcapio: implausible capture length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return time.Time{}, nil, fmt.Errorf("pcapio: truncated packet data: %w", err)
	}
	nanos := int64(sub) * 1000
	if r.nanos {
		nanos = int64(sub)
	}
	return time.Unix(int64(sec), nanos), data, nil
}
