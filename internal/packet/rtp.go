package packet

import (
	"encoding/binary"
	"fmt"
)

// RTP is an RTP fixed header (RFC 3550). The paper observes a
// non-negligible share of real-time voice/video traffic even over the
// 550 ms link (Table 1: 1.1 % of volume).
type RTP struct {
	Padding     bool
	Marker      bool
	PayloadType uint8 // 7 bits
	Sequence    uint16
	Timestamp   uint32
	SSRC        uint32
	CSRC        []uint32 // up to 15
}

// AppendBinary appends the header (version 2, no extension) to b.
func (r *RTP) AppendBinary(b []byte) ([]byte, error) {
	if len(r.CSRC) > 15 {
		return nil, fmt.Errorf("rtp: %d CSRCs exceeds 15", len(r.CSRC))
	}
	if r.PayloadType > 127 {
		return nil, fmt.Errorf("rtp: payload type %d exceeds 127", r.PayloadType)
	}
	b0 := byte(2<<6) | uint8(len(r.CSRC))
	if r.Padding {
		b0 |= 1 << 5
	}
	b1 := r.PayloadType
	if r.Marker {
		b1 |= 1 << 7
	}
	b = append(b, b0, b1)
	b = binary.BigEndian.AppendUint16(b, r.Sequence)
	b = binary.BigEndian.AppendUint32(b, r.Timestamp)
	b = binary.BigEndian.AppendUint32(b, r.SSRC)
	for _, c := range r.CSRC {
		b = binary.BigEndian.AppendUint32(b, c)
	}
	return b, nil
}

// LooksLikeRTP is the DPI heuristic for RTP over UDP: version 2 and a
// plausible payload type.
func LooksLikeRTP(data []byte) bool {
	if len(data) < 12 || data[0]>>6 != 2 {
		return false
	}
	pt := data[1] & 0x7f
	// Dynamic (96-127) or well-known static payload types.
	return pt >= 96 || pt <= 34
}
