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

// AppendBinary appends the record to b.
func (r *TLSRecord) AppendBinary(b []byte) ([]byte, error) {
	if len(r.Payload) > 1<<14+256 {
		return nil, fmt.Errorf("tls: record payload %d exceeds maximum", len(r.Payload))
	}
	b = append(b, r.Type)
	b = binary.BigEndian.AppendUint16(b, r.Version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Payload)))
	return append(b, r.Payload...), nil
}

// appendHandshakeHeader appends a handshake message header: its type and
// its 24-bit body length.
func appendHandshakeHeader(b []byte, typ uint8, bodyLen int) []byte {
	return append(b, typ, byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen))
}

// ClientHello is the subset of a TLS ClientHello the probe cares about.
type ClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   string // SNI, empty when absent
}

// defaultCipherSuites is what a ClientHello without CipherSuites offers.
var defaultCipherSuites = []uint16{0x1301, 0x1302, 0xc02f}

// AppendBinary appends the full handshake message (type + length + body)
// to b.
func (ch *ClientHello) AppendBinary(b []byte) ([]byte, error) {
	if len(ch.SessionID) > 32 {
		return nil, fmt.Errorf("tls: session id too long")
	}
	if len(ch.ServerName) > 255 {
		return nil, fmt.Errorf("tls: server name too long")
	}
	suites := ch.CipherSuites
	if len(suites) == 0 {
		suites = defaultCipherSuites
	}
	extLen := 0
	if ch.ServerName != "" {
		// server_name extension: type, length, list length, then the one
		// (host_name, name) entry.
		extLen = 4 + 2 + 3 + len(ch.ServerName)
	}
	bodyLen := 2 + len(ch.Random) + 1 + len(ch.SessionID) + 2 + 2*len(suites) + 2 + 2 + extLen
	b = appendHandshakeHeader(b, TLSHandshakeClientHello, bodyLen)
	b = binary.BigEndian.AppendUint16(b, ch.Version)
	b = append(b, ch.Random[:]...)
	b = append(b, byte(len(ch.SessionID)))
	b = append(b, ch.SessionID...)
	b = binary.BigEndian.AppendUint16(b, uint16(2*len(suites)))
	for _, s := range suites {
		b = binary.BigEndian.AppendUint16(b, s)
	}
	b = append(b, 1, 0) // compression methods: null
	b = binary.BigEndian.AppendUint16(b, uint16(extLen))
	if ch.ServerName != "" {
		b = binary.BigEndian.AppendUint16(b, sniExtension)
		b = binary.BigEndian.AppendUint16(b, uint16(extLen-4))
		b = binary.BigEndian.AppendUint16(b, uint16(3+len(ch.ServerName))) // server_name_list length
		b = append(b, 0)                                                   // name_type host_name
		b = binary.BigEndian.AppendUint16(b, uint16(len(ch.ServerName)))
		b = append(b, ch.ServerName...)
	}
	return b, nil
}

// ServerHello is the subset of a TLS ServerHello the probe cares about.
type ServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
}

// AppendBinary appends the full handshake message to b.
func (sh *ServerHello) AppendBinary(b []byte) ([]byte, error) {
	if len(sh.SessionID) > 32 {
		return nil, fmt.Errorf("tls: session id too long")
	}
	bodyLen := 2 + len(sh.Random) + 1 + len(sh.SessionID) + 2 + 1 + 2
	b = appendHandshakeHeader(b, TLSHandshakeServerHello, bodyLen)
	b = binary.BigEndian.AppendUint16(b, sh.Version)
	b = append(b, sh.Random[:]...)
	b = append(b, byte(len(sh.SessionID)))
	b = append(b, sh.SessionID...)
	b = binary.BigEndian.AppendUint16(b, sh.CipherSuite)
	b = append(b, 0) // compression: null
	b = binary.BigEndian.AppendUint16(b, 0)
	return b, nil
}

// OpaqueHandshake frames an opaque handshake message of the given type and
// body length (used by the synthesizer for Certificate, ClientKeyExchange,
// etc., whose contents the probe never inspects).
func OpaqueHandshake(typ uint8, bodyLen int) []byte {
	return append(appendHandshakeHeader(nil, typ, bodyLen), make([]byte, bodyLen)...)
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
