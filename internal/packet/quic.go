package packet

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// QUICInitial is a QUIC long-header Initial packet carrying a CRYPTO frame
// with the TLS ClientHello.
//
// Simplification, documented in DESIGN.md: real QUIC protects the Initial
// payload with keys derived from the destination connection ID. A passive
// probe can and does undo that protection (the keys are public by design);
// our synthesizer skips the obfuscation step and writes the CRYPTO frame in
// the clear, so the decode path — long-header parse, varint framing, CRYPTO
// reassembly, inner ClientHello/SNI parse — is identical while the bench
// avoids pulling a TLS-1.3 key schedule into scope.
type QUICInitial struct {
	Version       uint32
	DCID          []byte
	SCID          []byte
	Token         []byte
	CryptoPayload []byte // TLS handshake bytes carried in the CRYPTO frame
}

// QUICVersion1 is RFC 9000's version field value.
const QUICVersion1 uint32 = 1

const quicFrameCrypto = 0x06

// AppendBinary appends the Initial packet to b.
func (q *QUICInitial) AppendBinary(b []byte) ([]byte, error) {
	if len(q.DCID) > 20 || len(q.SCID) > 20 {
		return nil, fmt.Errorf("quic: connection id exceeds 20 bytes")
	}
	// The protected payload is the packet number (1 byte, value 0) and one
	// CRYPTO frame: type, offset varint (0), length varint, data.
	var hdr [10]byte
	frame := appendVarint(append(hdr[:0], quicFrameCrypto, 0), uint64(len(q.CryptoPayload)))
	b = append(b, 0xc0) // long header, Initial, 1-byte packet number
	b = binary.BigEndian.AppendUint32(b, q.Version)
	b = append(b, byte(len(q.DCID)))
	b = append(b, q.DCID...)
	b = append(b, byte(len(q.SCID)))
	b = append(b, q.SCID...)
	b = appendVarint(b, uint64(len(q.Token)))
	b = append(b, q.Token...)
	b = appendVarint(b, uint64(1+len(frame)+len(q.CryptoPayload)))
	b = append(b, 0)
	b = append(b, frame...)
	return append(b, q.CryptoPayload...), nil
}

// IsQUICLongHeader reports whether data starts with a QUIC long header.
func IsQUICLongHeader(data []byte) bool {
	return len(data) >= 5 && data[0]&0xc0 == 0xc0
}

// QUICInitialSNI reads a QUIC Initial packet in place. ok reports whether
// data is an Initial whose header, token, payload and frames parse up to
// the first frame that is neither PADDING nor CRYPTO. sni is the server
// name of the first ClientHello in the CRYPTO data, which the handshake
// messages must frame exactly; it is empty when there is no such hello or
// it does not parse. The CRYPTO data is read where it lies unless the
// packet splits it over several frames, which are then joined in a copy.
func QUICInitialSNI(data []byte) (sni []byte, ok bool) {
	if len(data) < 7 {
		return nil, false
	}
	first := data[0]
	if first&0x80 == 0 || (first>>4)&0x3 != 0 {
		return nil, false // short header, or a long header other than Initial
	}
	off := 5
	var err error
	if _, off, err = readCID(data, off); err != nil {
		return nil, false
	}
	if _, off, err = readCID(data, off); err != nil {
		return nil, false
	}
	tokenLen, off, err := readVarint(data, off)
	if err != nil || off+int(tokenLen) > len(data) {
		return nil, false
	}
	off += int(tokenLen)
	payloadLen, off, err := readVarint(data, off)
	if err != nil || off+int(payloadLen) > len(data) {
		return nil, false
	}
	payload := data[off : off+int(payloadLen)]
	pnLen := int(first&0x3) + 1
	if len(payload) < pnLen {
		return nil, false
	}
	var crypto []byte
	for frames := payload[pnLen:]; len(frames) > 0; {
		if frames[0] == 0 { // PADDING
			frames = frames[1:]
			continue
		}
		if frames[0] != quicFrameCrypto {
			break // the synthesizer emits only PADDING and CRYPTO in Initials
		}
		fo := 1
		var n uint64
		if _, fo, err = readVarint(frames, fo); err != nil { // offset
			return nil, false
		}
		if n, fo, err = readVarint(frames, fo); err != nil { // length
			return nil, false
		}
		if fo+int(n) > len(frames) {
			return nil, false
		}
		if crypto == nil {
			crypto = frames[fo : fo+int(n)]
		} else {
			crypto = append(slices.Clip(crypto), frames[fo:fo+int(n)]...)
		}
		frames = frames[fo+int(n):]
	}
	seen := false
	if !WalkTLSHandshakes(crypto, func(typ uint8, body []byte) {
		if typ == TLSHandshakeClientHello && !seen {
			seen = true
			sni, _ = helloSNI(body)
		}
	}) {
		return nil, true
	}
	return sni, true
}

// readCID returns the length-prefixed connection ID at off, in place, and
// the offset just past it.
func readCID(data []byte, off int) ([]byte, int, error) {
	if off >= len(data) {
		return nil, 0, ErrTruncated
	}
	n := int(data[off])
	off++
	if n > 20 {
		return nil, 0, fmt.Errorf("quic: connection id length %d", n)
	}
	if off+n > len(data) {
		return nil, 0, ErrTruncated
	}
	return data[off : off+n], off + n, nil
}

// appendVarint writes a QUIC variable-length integer (RFC 9000 §16).
func appendVarint(out []byte, v uint64) []byte {
	switch {
	case v < 1<<6:
		return append(out, byte(v))
	case v < 1<<14:
		return append(out, 0x40|byte(v>>8), byte(v))
	case v < 1<<30:
		return append(out, 0x80|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		return append(out, 0xc0|byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

func readVarint(data []byte, off int) (uint64, int, error) {
	if off >= len(data) {
		return 0, 0, ErrTruncated
	}
	n := 1 << (data[off] >> 6)
	if off+n > len(data) {
		return 0, 0, ErrTruncated
	}
	v := uint64(data[off] & 0x3f)
	for i := 1; i < n; i++ {
		v = v<<8 | uint64(data[off+i])
	}
	return v, off + n, nil
}
