package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IP protocol numbers used by the deployment.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// IPv4 is the part of an IPv4 header the probe reads. Decode skips
// options; Encode writes a 20-byte header with TOS, ID, flags and fragment
// offset zero, and fills the total length and the checksum.
type IPv4 struct {
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
}

// Decode parses the header from data, verifying its checksum, and returns
// the bytes after it (bounded by the header's total-length field).
func (ip *IPv4) Decode(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, ErrTruncated
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("version %d is not IPv4", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 {
		return nil, fmt.Errorf("header length %d below minimum", ihl)
	}
	if len(data) < ihl {
		return nil, ErrTruncated
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl {
		return nil, fmt.Errorf("total length %d below header length %d", total, ihl)
	}
	if total > len(data) {
		return nil, ErrTruncated
	}
	if sum := headerChecksum(data[:ihl]); sum != 0 {
		return nil, fmt.Errorf("bad header checksum")
	}
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return data[ihl:total], nil
}

// Encode returns the header followed by transport, the bytes it carries.
func (ip *IPv4) Encode(transport []byte) ([]byte, error) {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return nil, fmt.Errorf("ipv4: src/dst must be IPv4 addresses")
	}
	total := 20 + len(transport)
	if total > 0xffff {
		return nil, fmt.Errorf("ipv4: packet length %d exceeds 65535", total)
	}
	out := make([]byte, total)
	h := out[:20]
	h[0] = 4<<4 | 5
	binary.BigEndian.PutUint16(h[2:4], uint16(total))
	h[8] = ip.TTL
	h[9] = ip.Protocol
	src, dst := ip.Src.As4(), ip.Dst.As4()
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	binary.BigEndian.PutUint16(h[10:12], headerChecksum(h))
	copy(out[20:], transport)
	return out, nil
}

// headerChecksum is the RFC 1071 ones-complement sum over the header. Over
// a header with a correct checksum in place it returns 0.
func headerChecksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	if len(h)%2 == 1 {
		sum += uint32(h[len(h)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
