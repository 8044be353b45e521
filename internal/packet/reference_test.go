package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// The struct-building decoders: every field of a message, copied out. The
// probe reads its few fields with the in-place scanners instead; these
// stay as the reference the round-trip tests and the differential fuzz
// targets hold the scanners to.

// DecodeDNS parses a DNS message.
func DecodeDNS(data []byte) (*DNS, error) {
	if len(data) < 12 {
		return nil, ErrTruncated
	}
	m := &DNS{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	m.QR = flags&(1<<15) != 0
	m.Opcode = uint8(flags >> 11 & 0xf)
	m.AA = flags&(1<<10) != 0
	m.TC = flags&(1<<9) != 0
	m.RD = flags&(1<<8) != 0
	m.RA = flags&(1<<7) != 0
	m.RCode = uint8(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q DNSQuestion
		q.Name, off, err = readName(data, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(data) {
			return nil, ErrTruncated
		}
		q.Type = binary.BigEndian.Uint16(data[off : off+2])
		q.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []struct {
		n   int
		dst *[]DNSRR
	}{{an, &m.Answers}, {ns, &m.Authorities}, {ar, &m.Additionals}} {
		for i := 0; i < sec.n; i++ {
			var rr DNSRR
			rr, off, err = readRR(data, off)
			if err != nil {
				return nil, err
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return m, nil
}

func readRR(data []byte, off int) (DNSRR, int, error) {
	var rr DNSRR
	var err error
	rr.Name, off, err = readName(data, off)
	if err != nil {
		return rr, off, err
	}
	if off+10 > len(data) {
		return rr, off, ErrTruncated
	}
	rr.Type = binary.BigEndian.Uint16(data[off : off+2])
	rr.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
	rr.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
	off += 10
	if off+rdlen > len(data) {
		return rr, off, ErrTruncated
	}
	rdata := data[off : off+rdlen]
	switch rr.Type {
	case DNSTypeA:
		if rdlen != 4 {
			return rr, off, fmt.Errorf("dns: A rdata length %d", rdlen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case DNSTypeAAAA:
		if rdlen != 16 {
			return rr, off, fmt.Errorf("dns: AAAA rdata length %d", rdlen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
	case DNSTypeCNAME:
		// CNAME targets may use compression pointers into the message.
		rr.Target, _, err = readName(data, off)
		if err != nil {
			return rr, off, err
		}
	default:
		rr.Data = append([]byte(nil), rdata...)
	}
	return rr, off + rdlen, nil
}

// readName reads a possibly-compressed domain name starting at off and
// returns the name and the offset just past it in the original stream.
func readName(data []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	end := off
	hops := 0
	for {
		if off >= len(data) {
			return "", 0, ErrTruncated
		}
		l := int(data[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return sb.String(), end, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3fff)
			if !jumped {
				end = off + 2
				jumped = true
			}
			if hops++; hops > 32 {
				return "", 0, fmt.Errorf("dns: compression pointer loop")
			}
			if ptr >= off {
				return "", 0, fmt.Errorf("dns: forward compression pointer")
			}
			off = ptr
		case l&0xc0 != 0:
			return "", 0, fmt.Errorf("dns: reserved label type %#x", l&0xc0)
		default:
			if off+1+l > len(data) {
				return "", 0, ErrTruncated
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(data[off+1 : off+1+l])
			if sb.Len() > 255 {
				return "", 0, fmt.Errorf("dns: name too long")
			}
			off += 1 + l
		}
	}
}

// DecodeTLSRecords parses a byte stream into consecutive TLS records.
// A trailing partial record is returned as rest without error, so callers
// can feed reassembled stream chunks incrementally.
func DecodeTLSRecords(data []byte) (recs []TLSRecord, rest []byte, err error) {
	for len(data) >= 5 {
		typ := data[0]
		if typ < TLSRecordChangeCipherSpec || typ > TLSRecordApplicationData {
			return recs, data, fmt.Errorf("tls: unknown content type %d", typ)
		}
		n := int(binary.BigEndian.Uint16(data[3:5]))
		if 5+n > len(data) {
			break
		}
		recs = append(recs, TLSRecord{Type: typ, Version: binary.BigEndian.Uint16(data[1:3]), Payload: data[5 : 5+n]})
		data = data[5+n:]
	}
	return recs, data, nil
}

// TLSHandshake is one handshake message inside a handshake record.
type TLSHandshake struct {
	Type uint8
	Body []byte
}

// DecodeTLSHandshakes splits a handshake-record payload into messages.
func DecodeTLSHandshakes(payload []byte) ([]TLSHandshake, error) {
	var out []TLSHandshake
	for len(payload) > 0 {
		if len(payload) < 4 {
			return nil, ErrTruncated
		}
		n := int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
		if 4+n > len(payload) {
			return nil, ErrTruncated
		}
		out = append(out, TLSHandshake{Type: payload[0], Body: payload[4 : 4+n]})
		payload = payload[4+n:]
	}
	return out, nil
}

// ParseClientHello parses a ClientHello handshake body (without the 4-byte
// handshake header).
func ParseClientHello(body []byte) (*ClientHello, error) {
	ch := &ClientHello{}
	if len(body) < 35 {
		return nil, ErrTruncated
	}
	ch.Version = binary.BigEndian.Uint16(body[0:2])
	copy(ch.Random[:], body[2:34])
	off := 34
	sidLen := int(body[off])
	off++
	if off+sidLen > len(body) {
		return nil, ErrTruncated
	}
	ch.SessionID = append([]byte(nil), body[off:off+sidLen]...)
	off += sidLen
	if off+2 > len(body) {
		return nil, ErrTruncated
	}
	csLen := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if csLen%2 != 0 || off+csLen > len(body) {
		return nil, fmt.Errorf("tls: bad cipher suite list")
	}
	for i := 0; i < csLen; i += 2 {
		ch.CipherSuites = append(ch.CipherSuites, binary.BigEndian.Uint16(body[off+i:off+i+2]))
	}
	off += csLen
	if off >= len(body) {
		return ch, nil // no compression/extensions (legal pre-extensions hello)
	}
	compLen := int(body[off])
	off++
	off += compLen
	if off+2 > len(body) {
		return ch, nil // no extensions block
	}
	extLen := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if off+extLen > len(body) {
		return nil, ErrTruncated
	}
	exts := body[off : off+extLen]
	for len(exts) >= 4 {
		typ := binary.BigEndian.Uint16(exts[0:2])
		n := int(binary.BigEndian.Uint16(exts[2:4]))
		if 4+n > len(exts) {
			return nil, ErrTruncated
		}
		if typ == sniExtension {
			name, err := parseSNI(exts[4 : 4+n])
			if err != nil {
				return nil, err
			}
			ch.ServerName = name
		}
		exts = exts[4+n:]
	}
	return ch, nil
}

func parseSNI(ext []byte) (string, error) {
	if len(ext) < 2 {
		return "", ErrTruncated
	}
	listLen := int(binary.BigEndian.Uint16(ext[0:2]))
	if 2+listLen > len(ext) {
		return "", ErrTruncated
	}
	list := ext[2 : 2+listLen]
	for len(list) >= 3 {
		nameType := list[0]
		n := int(binary.BigEndian.Uint16(list[1:3]))
		if 3+n > len(list) {
			return "", ErrTruncated
		}
		if nameType == 0 {
			return string(list[3 : 3+n]), nil
		}
		list = list[3+n:]
	}
	return "", nil
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

// Host returns the Host header value (without any port), or "".
func (r *HTTPRequest) Host() string {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, "Host") {
			host := h.Value
			if i := strings.LastIndexByte(host, ':'); i > 0 && !strings.Contains(host[i+1:], "]") {
				host = host[:i]
			}
			return host
		}
	}
	return ""
}

// ParseHTTPRequest parses a request head from the start of data. It accepts
// a partial header block (stops at the end of input), because the probe may
// only hold the first segment of the stream.
func ParseHTTPRequest(data []byte) (*HTTPRequest, error) {
	if !LooksLikeHTTPRequest(data) {
		return nil, fmt.Errorf("http: no request line")
	}
	// Bound the head to the header/body separator when present.
	if i := bytes.Index(data, []byte("\r\n\r\n")); i >= 0 {
		data = data[:i+2]
	}
	lines := strings.Split(string(data), "\r\n")
	if !bytes.HasSuffix(data, []byte("\r\n")) && len(lines) > 0 {
		// The segment was cut mid-line; the trailing fragment is not a
		// complete header field and must not be half-parsed.
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("http: no complete request line")
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("http: malformed request line %q", lines[0])
	}
	req := &HTTPRequest{Method: parts[0], Target: parts[1], Version: parts[2]}
	for _, ln := range lines[1:] {
		if ln == "" {
			break
		}
		name, value, ok := strings.Cut(ln, ":")
		if !ok {
			// Tolerate a trailing partial header line from a cut segment.
			break
		}
		req.Headers = append(req.Headers, HTTPHeader{Name: strings.TrimSpace(name), Value: strings.TrimSpace(value)})
	}
	return req, nil
}
