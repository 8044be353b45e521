package packet

import (
	"encoding/binary"
	"fmt"
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

// Encode serializes the Initial packet.
func (q *QUICInitial) Encode() ([]byte, error) {
	if len(q.DCID) > 20 || len(q.SCID) > 20 {
		return nil, fmt.Errorf("quic: connection id exceeds 20 bytes")
	}
	// CRYPTO frame: type, offset varint (0), length varint, data.
	frame := []byte{quicFrameCrypto, 0}
	frame = appendVarint(frame, uint64(len(q.CryptoPayload)))
	frame = append(frame, q.CryptoPayload...)

	// Packet number (1 byte, value 0) + frames form the protected payload.
	payload := append([]byte{0}, frame...)

	out := make([]byte, 0, 64+len(payload))
	out = append(out, 0xc0) // long header, Initial, 1-byte packet number
	out = binary.BigEndian.AppendUint32(out, q.Version)
	out = append(out, byte(len(q.DCID)))
	out = append(out, q.DCID...)
	out = append(out, byte(len(q.SCID)))
	out = append(out, q.SCID...)
	out = appendVarint(out, uint64(len(q.Token)))
	out = append(out, q.Token...)
	out = appendVarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return out, nil
}

// IsQUICLongHeader reports whether data starts with a QUIC long header.
func IsQUICLongHeader(data []byte) bool {
	return len(data) >= 5 && data[0]&0xc0 == 0xc0
}

// DecodeQUICInitial parses an Initial packet and the ClientHello inside its
// CRYPTO frame, if any.
func DecodeQUICInitial(data []byte) (*QUICInitial, error) {
	if len(data) < 7 {
		return nil, ErrTruncated
	}
	first := data[0]
	if first&0x80 == 0 {
		return nil, fmt.Errorf("quic: short header")
	}
	if (first>>4)&0x3 != 0 {
		return nil, fmt.Errorf("quic: not an Initial packet")
	}
	q := &QUICInitial{Version: binary.BigEndian.Uint32(data[1:5])}
	off := 5
	var err error
	if q.DCID, off, err = readCID(data, off); err != nil {
		return nil, err
	}
	if q.SCID, off, err = readCID(data, off); err != nil {
		return nil, err
	}
	tokenLen, off, err := readVarint(data, off)
	if err != nil {
		return nil, err
	}
	if off+int(tokenLen) > len(data) {
		return nil, ErrTruncated
	}
	q.Token = append([]byte(nil), data[off:off+int(tokenLen)]...)
	off += int(tokenLen)
	payloadLen, off, err := readVarint(data, off)
	if err != nil {
		return nil, err
	}
	if off+int(payloadLen) > len(data) {
		return nil, ErrTruncated
	}
	payload := data[off : off+int(payloadLen)]
	pnLen := int(first&0x3) + 1
	if len(payload) < pnLen {
		return nil, ErrTruncated
	}
	frames := payload[pnLen:]
	for len(frames) > 0 {
		switch frames[0] {
		case 0: // PADDING
			frames = frames[1:]
		case quicFrameCrypto:
			fo := 1
			var n uint64
			if _, fo, err = readVarint(frames, fo); err != nil { // offset
				return nil, err
			}
			if n, fo, err = readVarint(frames, fo); err != nil { // length
				return nil, err
			}
			if fo+int(n) > len(frames) {
				return nil, ErrTruncated
			}
			q.CryptoPayload = append(q.CryptoPayload, frames[fo:fo+int(n)]...)
			frames = frames[fo+int(n):]
		default:
			// Unknown frame: stop scanning (the synthesizer only emits
			// PADDING and CRYPTO in Initials).
			return q, nil
		}
	}
	return q, nil
}

// SNI extracts the server name from the Initial's embedded ClientHello.
func (q *QUICInitial) SNI() (string, error) {
	msgs, err := DecodeTLSHandshakes(q.CryptoPayload)
	if err != nil {
		return "", err
	}
	for _, m := range msgs {
		if m.Type == TLSHandshakeClientHello {
			ch, err := ParseClientHello(m.Body)
			if err != nil {
				return "", err
			}
			return ch.ServerName, nil
		}
	}
	return "", nil
}

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
	return append([]byte(nil), data[off:off+n]...), off + n, nil
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
