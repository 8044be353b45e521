package tstat

import "satwatch/internal/packet"

// dpiBudget caps how many reassembled client bytes the DPI inspects per
// flow before giving up on naming it.
const dpiBudget = 8 << 10

// dpiState incrementally classifies a flow and extracts the server name
// from the first client payload bytes (§2.2's DPI module: HTTP Host, TLS
// SNI, QUIC SNI).
type dpiState struct {
	// names interns the names read off the wire: the tracker's memo, or
	// nil for a plain conversion.
	names nameMemo
	// buf holds a client stream whose first payload did not decide;
	// empty otherwise.
	buf     []byte
	done    bool
	domain  string
	isTLS   bool
	isHTTP  bool
	isQUIC  bool
	isRTP   bool
	sawData bool
}

// feedClientTCP accumulates client-side TCP payload and tries to classify.
// The first payload is inspected in place; it is copied into buf only when
// the hello in it is incomplete and the next payload must be appended.
func (d *dpiState) feedClientTCP(data []byte) {
	if d.done || len(data) == 0 {
		return
	}
	d.sawData = true
	stream := data
	if len(d.buf) > 0 {
		d.buf = append(d.buf, data...)
		stream = d.buf
	}
	if d.name(stream) || len(stream) >= dpiBudget {
		d.finish()
		return
	}
	if len(d.buf) == 0 {
		d.buf = append(d.buf, data...)
	}
}

// name tries to name the flow from the client bytes seen so far: a TLS
// ClientHello's SNI, else a plain HTTP request's Host header.
func (d *dpiState) name(stream []byte) bool {
	if len(stream) >= 3 && stream[0] == packet.TLSRecordHandshake {
		sni, ok := packet.ClientHelloSNI(stream)
		if ok {
			d.isTLS = true
			d.domain = d.names.intern(sni)
		}
		return ok
	}
	if host, ok := packet.HTTPRequestHost(stream); ok && len(host) > 0 {
		d.isHTTP = true
		d.domain = d.names.intern(host)
		return true
	}
	return false
}

// feedClientUDP classifies a client UDP datagram (QUIC or RTP; DNS is
// handled by the dedicated transaction path).
func (d *dpiState) feedClientUDP(data []byte) {
	if d.done || len(data) == 0 {
		return
	}
	if packet.IsQUICLongHeader(data) {
		if sni, ok := packet.QUICInitialSNI(data); ok {
			d.isQUIC = true
			if len(sni) > 0 {
				d.domain = d.names.intern(sni)
			}
			d.finish()
			return
		}
	}
	if packet.LooksLikeRTP(data) {
		d.isRTP = true
		d.finish()
		return
	}
	// One datagram is enough to decide for UDP.
	d.finish()
}

// finish ends the inspection; buf keeps its storage for the flow state's
// next life.
func (d *dpiState) finish() {
	d.done = true
	d.buf = d.buf[:0]
}

// classifyTCP returns the Table 1 class of a TCP flow given the DPI
// verdict and the server port.
func (d *dpiState) classifyTCP(serverPort uint16) Protocol {
	switch {
	case d.isTLS:
		return ProtoHTTPS
	case d.isHTTP:
		return ProtoHTTP
	case serverPort == 443 && !d.sawData:
		// Handshake-only flow toward 443: count as HTTPS like Tstat does
		// (port heuristics back the DPI up).
		return ProtoHTTPS
	case serverPort == 80 && !d.sawData:
		return ProtoHTTP
	default:
		return ProtoTCPOther
	}
}

// classifyUDP returns the Table 1 class of a non-DNS UDP flow.
func (d *dpiState) classifyUDP(serverPort uint16) Protocol {
	switch {
	case d.isQUIC:
		return ProtoQUIC
	case d.isRTP:
		return ProtoRTP
	case serverPort == 443:
		// UDP/443 that no Initial named is QUIC by port, like Tstat: a
		// short-header packet carries nothing to parse, and a flow whose
		// datagrams went unanswered must not change class with whether
		// the probe was handed their bytes.
		return ProtoQUIC
	default:
		return ProtoUDPOther
	}
}
