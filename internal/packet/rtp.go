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

// Encode serializes the header (version 2, no extension).
func (r *RTP) Encode() ([]byte, error) {
	if len(r.CSRC) > 15 {
		return nil, fmt.Errorf("rtp: %d CSRCs exceeds 15", len(r.CSRC))
	}
	if r.PayloadType > 127 {
		return nil, fmt.Errorf("rtp: payload type %d exceeds 127", r.PayloadType)
	}
	out := make([]byte, 12+4*len(r.CSRC))
	out[0] = 2 << 6
	if r.Padding {
		out[0] |= 1 << 5
	}
	out[0] |= uint8(len(r.CSRC))
	out[1] = r.PayloadType
	if r.Marker {
		out[1] |= 1 << 7
	}
	binary.BigEndian.PutUint16(out[2:4], r.Sequence)
	binary.BigEndian.PutUint32(out[4:8], r.Timestamp)
	binary.BigEndian.PutUint32(out[8:12], r.SSRC)
	for i, c := range r.CSRC {
		binary.BigEndian.PutUint32(out[12+4*i:16+4*i], c)
	}
	return out, nil
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
