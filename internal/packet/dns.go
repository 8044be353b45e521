package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// DNS record types and classes used by the deployment's resolvers.
const (
	DNSTypeA     uint16 = 1
	DNSTypeCNAME uint16 = 5
	DNSTypeAAAA  uint16 = 28
	DNSClassIN   uint16 = 1
)

// DNSQuestion is one question section entry.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSRR is one resource record. For A/AAAA records Addr carries the
// address; for CNAME records Target carries the canonical name; for other
// types Data carries the RDATA opaquely.
type DNSRR struct {
	Name   string
	Type   uint16
	Class  uint16
	TTL    uint32
	Addr   netip.Addr
	Target string
	Data   []byte
}

// DNS is a DNS message (RFC 1035 wire format). AppendBinary writes names
// uncompressed; ScanDNS follows compression pointers.
type DNS struct {
	ID     uint16
	QR     bool // response
	Opcode uint8
	AA     bool
	TC     bool
	RD     bool
	RA     bool
	RCode  uint8

	Questions   []DNSQuestion
	Answers     []DNSRR
	Authorities []DNSRR
	Additionals []DNSRR
}

// AppendBinary appends the message to b.
func (m *DNS) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.ID)
	var flags uint16
	if m.QR {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xf) << 11
	if m.AA {
		flags |= 1 << 10
	}
	if m.TC {
		flags |= 1 << 9
	}
	if m.RD {
		flags |= 1 << 8
	}
	if m.RA {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xf)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authorities)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Additionals)))
	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, q.Type)
		b = binary.BigEndian.AppendUint16(b, q.Class)
	}
	for _, sec := range [][]DNSRR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if b, err = appendRR(b, rr); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// appendRR appends a resource record; its RDATA length is filled in once
// the RDATA is written.
func appendRR(b []byte, rr DNSRR) ([]byte, error) {
	var err error
	if b, err = appendName(b, rr.Name); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, rr.Type)
	b = binary.BigEndian.AppendUint16(b, rr.Class)
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	at := len(b)
	b = append(b, 0, 0)
	switch rr.Type {
	case DNSTypeA:
		if !rr.Addr.Is4() {
			return nil, fmt.Errorf("dns: A record %q without IPv4 address", rr.Name)
		}
		a := rr.Addr.As4()
		b = append(b, a[:]...)
	case DNSTypeAAAA:
		if !rr.Addr.Is6() {
			return nil, fmt.Errorf("dns: AAAA record %q without IPv6 address", rr.Name)
		}
		a := rr.Addr.As16()
		b = append(b, a[:]...)
	case DNSTypeCNAME:
		if b, err = appendName(b, rr.Target); err != nil {
			return nil, err
		}
	default:
		b = append(b, rr.Data...)
	}
	n := len(b) - at - 2
	if n > 0xffff {
		return nil, fmt.Errorf("dns: rdata of %q too long", rr.Name)
	}
	binary.BigEndian.PutUint16(b[at:], uint16(n))
	return b, nil
}

// appendName writes a domain name in uncompressed label format.
func appendName(out []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	for rest, more := name, name != ""; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("dns: bad label in %q", name)
		}
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	return append(out, 0), nil
}

// DNSSummary is what the probe reads of a DNS message besides the question
// name: the header fields a transaction is matched by and the first A
// record of the answer section.
type DNSSummary struct {
	ID    uint16
	QR    bool // response
	RCode uint8
	// Answer is the address of the first A answer; invalid when none.
	Answer netip.Addr
}

// ScanDNS reads a DNS message in place. It accepts exactly the messages a
// full decode does (every question and resource record is walked, with the
// same name, compression-pointer and RDATA checks) but builds nothing. The
// first question's name, dotted, is appended to buf and returned (empty
// without a question); a buf of 255 bytes, the longest name a message may
// carry, is never outgrown.
func ScanDNS(data, buf []byte) (DNSSummary, []byte, error) {
	if len(data) < 12 {
		return DNSSummary{}, nil, ErrTruncated
	}
	flags := binary.BigEndian.Uint16(data[2:4])
	s := DNSSummary{
		ID:    binary.BigEndian.Uint16(data[0:2]),
		QR:    flags&(1<<15) != 0,
		RCode: uint8(flags & 0xf),
	}
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	rrs := an + int(binary.BigEndian.Uint16(data[8:10])) + int(binary.BigEndian.Uint16(data[10:12]))
	off := 12
	var qname []byte
	var err error
	for i := 0; i < qd; i++ {
		var name []byte
		if name, off, err = scanName(data, off, buf, i == 0); err != nil {
			return DNSSummary{}, nil, err
		}
		if i == 0 {
			qname = name
		}
		if off+4 > len(data) {
			return DNSSummary{}, nil, ErrTruncated
		}
		off += 4
	}
	for i := 0; i < rrs; i++ {
		var typ uint16
		var rdata []byte
		if typ, rdata, off, err = scanRR(data, off); err != nil {
			return DNSSummary{}, nil, err
		}
		if i < an && typ == DNSTypeA && !s.Answer.IsValid() {
			s.Answer = netip.AddrFrom4([4]byte(rdata))
		}
	}
	return s, qname, nil
}

// scanRR checks the resource record at off and returns its type, its RDATA
// and the offset just past it.
func scanRR(data []byte, off int) (uint16, []byte, int, error) {
	_, off, err := scanName(data, off, nil, false)
	if err != nil {
		return 0, nil, 0, err
	}
	if off+10 > len(data) {
		return 0, nil, 0, ErrTruncated
	}
	typ := binary.BigEndian.Uint16(data[off : off+2])
	rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
	off += 10
	if off+rdlen > len(data) {
		return 0, nil, 0, ErrTruncated
	}
	switch typ {
	case DNSTypeA:
		if rdlen != 4 {
			return 0, nil, 0, fmt.Errorf("dns: A rdata length %d", rdlen)
		}
	case DNSTypeAAAA:
		if rdlen != 16 {
			return 0, nil, 0, fmt.Errorf("dns: AAAA rdata length %d", rdlen)
		}
	case DNSTypeCNAME:
		// CNAME targets may use compression pointers into the message.
		if _, _, err := scanName(data, off, nil, false); err != nil {
			return 0, nil, 0, err
		}
	}
	return typ, data[off : off+rdlen], off + rdlen, nil
}

// scanName walks the possibly-compressed domain name at off and returns the
// offset just past it in the original stream. With keep it appends the
// dotted name to dst and returns the result; otherwise dst is returned
// untouched.
func scanName(data []byte, off int, dst []byte, keep bool) ([]byte, int, error) {
	n := 0 // length of the dotted name so far
	jumped := false
	end := off
	hops := 0
	for {
		if off >= len(data) {
			return nil, 0, ErrTruncated
		}
		l := int(data[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return dst, end, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return nil, 0, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3fff)
			if !jumped {
				end = off + 2
				jumped = true
			}
			if hops++; hops > 32 {
				return nil, 0, fmt.Errorf("dns: compression pointer loop")
			}
			if ptr >= off {
				return nil, 0, fmt.Errorf("dns: forward compression pointer")
			}
			off = ptr
		case l&0xc0 != 0:
			return nil, 0, fmt.Errorf("dns: reserved label type %#x", l&0xc0)
		default:
			if off+1+l > len(data) {
				return nil, 0, ErrTruncated
			}
			if n > 0 {
				n++
				if keep {
					dst = append(dst, '.')
				}
			}
			if keep {
				dst = append(dst, data[off+1:off+1+l]...)
			}
			if n += l; n > 255 {
				return nil, 0, fmt.Errorf("dns: name too long")
			}
			off += 1 + l
		}
	}
}
