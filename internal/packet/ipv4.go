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

// IPv4 is an IPv4 header. Options are carried opaquely.
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length; filled by SerializeTo
	ID       uint16
	Flags    uint8  // 3 bits: reserved, DF, MF
	FragOff  uint16 // 13 bits, in 8-byte units
	TTL      uint8
	Protocol uint8
	Checksum uint16 // filled by SerializeTo, verified by Decode
	Src, Dst netip.Addr
	Options  []byte // length must be a multiple of 4
}

// LayerType implements Layer.
func (*IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// HeaderLen returns the header length in bytes including options.
func (ip *IPv4) HeaderLen() int { return 20 + len(ip.Options) }

// Decode parses the header from data and returns the bytes after it
// (bounded by the header's total-length field).
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
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	if int(ip.Length) < ihl {
		return nil, fmt.Errorf("total length %d below header length %d", ip.Length, ihl)
	}
	if int(ip.Length) > len(data) {
		return nil, ErrTruncated
	}
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	if sum := headerChecksum(data[:ihl]); sum != 0 {
		return nil, fmt.Errorf("bad header checksum")
	}
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if ihl > 20 {
		ip.Options = append([]byte(nil), data[20:ihl]...)
	} else {
		ip.Options = nil
	}
	return data[ihl:int(ip.Length)], nil
}

// SerializeTo implements Serializer, computing Length and Checksum.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	if len(ip.Options)%4 != 0 {
		return fmt.Errorf("ipv4: options length %d not a multiple of 4", len(ip.Options))
	}
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("ipv4: src/dst must be IPv4 addresses")
	}
	hlen := ip.HeaderLen()
	total := hlen + b.Len()
	if total > 0xffff {
		return fmt.Errorf("ipv4: packet length %d exceeds 65535", total)
	}
	h := b.Prepend(hlen)
	h[0] = 4<<4 | uint8(hlen/4)
	h[1] = ip.TOS
	binary.BigEndian.PutUint16(h[2:4], uint16(total))
	ip.Length = uint16(total)
	binary.BigEndian.PutUint16(h[4:6], ip.ID)
	binary.BigEndian.PutUint16(h[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	h[8] = ip.TTL
	h[9] = ip.Protocol
	h[10], h[11] = 0, 0
	src, dst := ip.Src.As4(), ip.Dst.As4()
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	copy(h[20:], ip.Options)
	ip.Checksum = headerChecksum(h)
	binary.BigEndian.PutUint16(h[10:12], ip.Checksum)
	return nil
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
