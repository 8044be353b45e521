package packet

import (
	"encoding/binary"
	"fmt"
)

// TCPFlags is the TCP flag byte (we ignore the reserved/NS bits).
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

func (f TCPFlags) Has(bits TCPFlags) bool { return f&bits == bits }

func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name byte
	}{{FlagFIN, 'F'}, {FlagSYN, 'S'}, {FlagRST, 'R'}, {FlagPSH, 'P'}, {FlagACK, 'A'}, {FlagURG, 'U'}}
	out := make([]byte, 0, 6)
	for _, n := range names {
		if f&n.bit != 0 {
			out = append(out, n.name)
		}
	}
	if len(out) == 0 {
		return "-"
	}
	return string(out)
}

// TCP is the part of a TCP header the probe reads. Decode skips options;
// Encode writes a 20-byte header with the urgent pointer zero. The
// checksum is not computed (it needs a pseudo-header; the probe never
// validates it, as span ports commonly deliver offload-mangled checksums
// anyway).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
}

// Decode parses the header and returns the payload bytes.
func (t *TCP) Decode(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, ErrTruncated
	}
	off := int(data[12]>>4) * 4
	if off < 20 {
		return nil, fmt.Errorf("data offset %d below minimum", off)
	}
	if len(data) < off {
		return nil, ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = TCPFlags(data[13] & 0x3f)
	t.Window = binary.BigEndian.Uint16(data[14:16])
	return data[off:], nil
}

// Encode returns the header followed by payload.
func (t *TCP) Encode(payload []byte) []byte {
	out := make([]byte, 20+len(payload))
	binary.BigEndian.PutUint16(out[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(out[2:4], t.DstPort)
	binary.BigEndian.PutUint32(out[4:8], t.Seq)
	binary.BigEndian.PutUint32(out[8:12], t.Ack)
	out[12] = 5 << 4
	out[13] = uint8(t.Flags)
	binary.BigEndian.PutUint16(out[14:16], t.Window)
	copy(out[20:], payload)
	return out
}

// UDP is a UDP header's ports. Decode checks the length field; Encode
// fills it and leaves the checksum zero (legal in IPv4: "no checksum
// computed").
type UDP struct {
	SrcPort, DstPort uint16
}

// Decode parses the header and returns the payload bytes (bounded by the
// UDP length field).
func (u *UDP) Decode(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < 8 {
		return nil, fmt.Errorf("udp length %d below 8", length)
	}
	if length > len(data) {
		return nil, ErrTruncated
	}
	return data[8:length], nil
}

// Encode returns the header followed by payload.
func (u *UDP) Encode(payload []byte) ([]byte, error) {
	total := 8 + len(payload)
	if total > 0xffff {
		return nil, fmt.Errorf("udp: datagram length %d exceeds 65535", total)
	}
	out := make([]byte, total)
	binary.BigEndian.PutUint16(out[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(out[2:4], u.DstPort)
	binary.BigEndian.PutUint16(out[4:6], uint16(total))
	copy(out[8:], payload)
	return out, nil
}
