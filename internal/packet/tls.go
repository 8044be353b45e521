package packet

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// TLS record content types.
const (
	TLSRecordChangeCipherSpec uint8 = 20
	TLSRecordHandshake        uint8 = 22
	TLSRecordApplicationData  uint8 = 23
)

// TLS handshake message types.
const (
	TLSHandshakeClientHello       uint8 = 1
	TLSHandshakeServerHello       uint8 = 2
	TLSHandshakeCertificate       uint8 = 11
	TLSHandshakeServerHelloDone   uint8 = 14
	TLSHandshakeClientKeyExchange uint8 = 16
)

// TLSVersion12 is the record/handshake version the synthesizer stamps.
const TLSVersion12 uint16 = 0x0303

// sniExtension is the server_name extension type.
const sniExtension uint16 = 0

// TLSRecord is one TLS record: a content type plus an opaque fragment.
type TLSRecord struct {
	Type    uint8
	Version uint16
	Payload []byte
}

// Encode serializes the record.
func (r *TLSRecord) Encode() ([]byte, error) {
	if len(r.Payload) > 1<<14+256 {
		return nil, fmt.Errorf("tls: record payload %d exceeds maximum", len(r.Payload))
	}
	out := make([]byte, 5+len(r.Payload))
	out[0] = r.Type
	binary.BigEndian.PutUint16(out[1:3], r.Version)
	binary.BigEndian.PutUint16(out[3:5], uint16(len(r.Payload)))
	copy(out[5:], r.Payload)
	return out, nil
}

// encodeHandshake frames a handshake message.
func encodeHandshake(typ uint8, body []byte) []byte {
	out := make([]byte, 4+len(body))
	out[0] = typ
	out[1] = byte(len(body) >> 16)
	out[2] = byte(len(body) >> 8)
	out[3] = byte(len(body))
	copy(out[4:], body)
	return out
}

// ClientHello is the subset of a TLS ClientHello the probe cares about.
type ClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   string // SNI, empty when absent
}

// Encode builds the full handshake message (type + length + body).
func (ch *ClientHello) Encode() ([]byte, error) {
	if len(ch.SessionID) > 32 {
		return nil, fmt.Errorf("tls: session id too long")
	}
	body := make([]byte, 0, 128)
	body = binary.BigEndian.AppendUint16(body, ch.Version)
	body = append(body, ch.Random[:]...)
	body = append(body, byte(len(ch.SessionID)))
	body = append(body, ch.SessionID...)
	suites := ch.CipherSuites
	if len(suites) == 0 {
		suites = []uint16{0x1301, 0x1302, 0xc02f}
	}
	body = binary.BigEndian.AppendUint16(body, uint16(2*len(suites)))
	for _, s := range suites {
		body = binary.BigEndian.AppendUint16(body, s)
	}
	body = append(body, 1, 0) // compression methods: null
	var exts []byte
	if ch.ServerName != "" {
		if len(ch.ServerName) > 255 {
			return nil, fmt.Errorf("tls: server name too long")
		}
		// server_name extension: list of (type=0 host_name, name).
		name := []byte(ch.ServerName)
		sni := make([]byte, 0, 5+len(name))
		sni = binary.BigEndian.AppendUint16(sni, uint16(3+len(name))) // server_name_list length
		sni = append(sni, 0)                                          // name_type host_name
		sni = binary.BigEndian.AppendUint16(sni, uint16(len(name)))
		sni = append(sni, name...)
		exts = binary.BigEndian.AppendUint16(exts, sniExtension)
		exts = binary.BigEndian.AppendUint16(exts, uint16(len(sni)))
		exts = append(exts, sni...)
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(exts)))
	body = append(body, exts...)
	return encodeHandshake(TLSHandshakeClientHello, body), nil
}

// ServerHello is the subset of a TLS ServerHello the probe cares about.
type ServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
}

// Encode builds the full handshake message.
func (sh *ServerHello) Encode() ([]byte, error) {
	if len(sh.SessionID) > 32 {
		return nil, fmt.Errorf("tls: session id too long")
	}
	body := make([]byte, 0, 64)
	body = binary.BigEndian.AppendUint16(body, sh.Version)
	body = append(body, sh.Random[:]...)
	body = append(body, byte(len(sh.SessionID)))
	body = append(body, sh.SessionID...)
	body = binary.BigEndian.AppendUint16(body, sh.CipherSuite)
	body = append(body, 0) // compression: null
	body = binary.BigEndian.AppendUint16(body, 0)
	return encodeHandshake(TLSHandshakeServerHello, body), nil
}

// OpaqueHandshake frames an opaque handshake message of the given type and
// body length (used by the synthesizer for Certificate, ClientKeyExchange,
// etc., whose contents the probe never inspects).
func OpaqueHandshake(typ uint8, bodyLen int) []byte {
	return encodeHandshake(typ, make([]byte, bodyLen))
}

// WalkTLSRecords calls visit with the content type and payload of each
// whole record at the front of a TLS byte stream, in place, and reports
// whether the stream is well formed. A trailing partial record is not
// visited: the next segment may complete it. A record with an unknown
// content type, partial or not once its 5-byte header is there, makes the
// stream malformed, whatever was visited before it.
func WalkTLSRecords(data []byte, visit func(typ uint8, payload []byte)) bool {
	for len(data) >= 5 {
		typ := data[0]
		if typ < TLSRecordChangeCipherSpec || typ > TLSRecordApplicationData {
			return false
		}
		n := int(binary.BigEndian.Uint16(data[3:5]))
		if 5+n > len(data) {
			break
		}
		visit(typ, data[5:5+n])
		data = data[5+n:]
	}
	return true
}

// WalkTLSHandshakes calls visit with the type and body of each handshake
// message in a handshake payload, in place, and reports whether the
// messages frame the payload exactly; when they do not, the messages
// visited before the break count for nothing.
func WalkTLSHandshakes(payload []byte, visit func(typ uint8, body []byte)) bool {
	for len(payload) > 0 {
		if len(payload) < 4 {
			return false
		}
		n := int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
		if 4+n > len(payload) {
			return false
		}
		visit(payload[0], payload[4:4+n])
		payload = payload[4+n:]
	}
	return true
}

// ClientHelloSNI reads a client's TLS stream in place. ok reports whether
// the handshake records at its front carry a ClientHello that parses: the
// stream is well formed, the handshake messages of its records, taken
// together, frame exactly, and one of them is such a ClientHello. sni is
// the first such hello's server name, empty when it names none; it aliases
// stream unless the handshake spans records, which are then joined in a
// copy.
func ClientHelloSNI(stream []byte) (sni []byte, ok bool) {
	var hs []byte
	if !WalkTLSRecords(stream, func(typ uint8, payload []byte) {
		if typ != TLSRecordHandshake {
			return
		}
		if hs == nil {
			hs = payload
		} else {
			hs = append(slices.Clip(hs), payload...)
		}
	}) {
		return nil, false
	}
	if !WalkTLSHandshakes(hs, func(typ uint8, body []byte) {
		if typ == TLSHandshakeClientHello && !ok {
			sni, ok = helloSNI(body)
		}
	}) {
		return nil, false
	}
	return sni, ok
}

// helloSNI reads the server name of a ClientHello body (without the 4-byte
// handshake header) in place. ok is false where the body is malformed: a
// field runs past its end, the cipher suite list has odd length, or an
// extension, or the server_name list, overruns its frame. A hello without
// extensions, or without a server_name extension, parses with an empty
// name; of several server_name extensions the last counts.
func helloSNI(body []byte) (sni []byte, ok bool) {
	if len(body) < 35 {
		return nil, false
	}
	off := 35 + int(body[34]) // version, random, session ID
	if off+2 > len(body) {
		return nil, false
	}
	csLen := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if csLen%2 != 0 || off+csLen > len(body) {
		return nil, false
	}
	off += csLen
	if off >= len(body) {
		return nil, true // no compression/extensions (legal pre-extensions hello)
	}
	off += 1 + int(body[off]) // compression methods
	if off+2 > len(body) {
		return nil, true // no extensions block
	}
	extLen := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if off+extLen > len(body) {
		return nil, false
	}
	exts := body[off : off+extLen]
	for len(exts) >= 4 {
		typ := binary.BigEndian.Uint16(exts[0:2])
		n := int(binary.BigEndian.Uint16(exts[2:4]))
		if 4+n > len(exts) {
			return nil, false
		}
		if typ == sniExtension {
			if sni, ok = serverName(exts[4 : 4+n]); !ok {
				return nil, false
			}
		}
		exts = exts[4+n:]
	}
	return sni, true
}

// serverName reads a server_name extension body: the first host_name entry
// of its list, empty when there is none.
func serverName(ext []byte) ([]byte, bool) {
	if len(ext) < 2 {
		return nil, false
	}
	listLen := int(binary.BigEndian.Uint16(ext[0:2]))
	if 2+listLen > len(ext) {
		return nil, false
	}
	list := ext[2 : 2+listLen]
	for len(list) >= 3 {
		nameType := list[0]
		n := int(binary.BigEndian.Uint16(list[1:3]))
		if 3+n > len(list) {
			return nil, false
		}
		if nameType == 0 {
			return list[3 : 3+n], true
		}
		list = list[3+n:]
	}
	return nil, true
}
