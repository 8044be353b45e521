package tstat

import (
	"time"

	"satwatch/internal/packet"
)

// tlsStage tracks the handshake progress used for the satellite-RTT
// estimate (§2.2: ServerHello → next ClientKeyExchange/ChangeCipherSpec,
// home RTT considered negligible).
type tlsStage uint8

const (
	tlsIdle tlsStage = iota
	tlsSawClientHello
	tlsSawServerHello
	tlsDone
)

// outstandingSeg is one unacknowledged client→server data segment awaiting
// its ACK for a ground-RTT sample.
type outstandingSeg struct {
	seqEnd uint32
	t      time.Duration
}

// flowState is the per-flow tracking state.
type flowState struct {
	key    packet.FiveTuple // canonical tuple: the flow-table key
	client packet.Endpoint  // initiator (customer side)
	server packet.Endpoint
	isTCP  bool

	start, last time.Duration
	bytesUp     int64
	bytesDown   int64
	pktsUp      int64
	pktsDown    int64
	// first10 holds the times of the first n10 events; record copies them
	// out, so a recycled state never shares them with a record.
	first10 [10]time.Duration
	n10     uint8

	dpi dpiState

	// Ground RTT: client→server data awaiting server ACKs. outstanding
	// starts on outBuf, which holds a typical flow's whole window.
	outstanding []outstandingSeg
	outBuf      [4]outstandingSeg
	maxSeqSent  uint32
	seqValid    bool
	ground      rttAccum

	// Satellite RTT via the TLS handshake.
	tls       tlsStage
	tSrvHello time.Duration
	satRTT    time.Duration

	// DNS transaction bookkeeping (UDP/53 flows). A recycled state keeps
	// the map, cleared.
	dnsPending map[uint16]dnsPending

	finSeen [2]bool
	rstSeen bool

	// Eviction index (Tracker.sweep): touched marks the flow as queued on
	// Tracker.touched since the last sweep; gen is the generation of its
	// live deadline-heap entry and due that entry's deadline (0: none).
	// gen only grows, across the lives of a recycled state too, so an
	// entry filed in an earlier life never matches a later one.
	touched bool
	gen     uint32
	due     time.Duration
}

type dnsPending struct {
	t    time.Duration
	name string
}

// reset starts a new flow on f, a fresh state or one off the tracker's
// free list. It keeps what a recycled state may reuse: the cleared
// pending-query map, the DPI buffer's storage, the name memo and the heap
// generation.
func (f *flowState) reset(key packet.FiveTuple, client, server packet.Endpoint, isTCP bool, t time.Duration) {
	pending, buf, names, gen := f.dnsPending, f.dpi.buf[:0], f.dpi.names, f.gen
	clear(pending)
	*f = flowState{key: key, client: client, server: server, isTCP: isTCP, start: t, last: t,
		dnsPending: pending, gen: gen}
	f.dpi.buf, f.dpi.names = buf, names
	f.outstanding = f.outBuf[:0]
}

// carries reports whether tuple, in either orientation, is this flow's.
func (f *flowState) carries(tuple packet.FiveTuple) bool {
	return tuple.Proto == f.key.Proto &&
		(tuple.Src == f.client && tuple.Dst == f.server || tuple.Src == f.server && tuple.Dst == f.client)
}

// seqLE compares sequence numbers with wraparound.
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

// observe folds one segment event into the flow.
func (f *flowState) observe(ev *SegmentEvent, sink *Tracker) {
	pkts := int64(max(ev.Packets, 1))
	f.last = ev.T
	if f.n10 < uint8(len(f.first10)) {
		f.first10[f.n10] = ev.T
		f.n10++
	}
	if ev.Dir == ClientToServer {
		f.bytesUp += int64(ev.Payload)
		f.pktsUp += pkts
	} else {
		f.bytesDown += int64(ev.Payload)
		f.pktsDown += pkts
	}

	if f.isTCP {
		f.observeTCP(ev)
	} else {
		f.observeUDP(ev, sink)
	}
}

func (f *flowState) observeTCP(ev *SegmentEvent) {
	if ev.Flags.Has(packet.FlagRST) {
		f.rstSeen = true
	}
	if ev.Flags.Has(packet.FlagFIN) {
		f.finSeen[ev.Dir] = true
	}

	switch ev.Dir {
	case ClientToServer:
		if len(ev.AppData) > 0 {
			f.dpi.feedClientTCP(ev.AppData)
			f.feedTLSClient(ev)
		}
		if ev.Payload > 0 {
			end := ev.Seq + uint32(ev.Payload)
			if f.seqValid && !seqLE(f.maxSeqSent, ev.Seq) {
				// Retransmission (Karn's rule): outstanding samples are
				// ambiguous, drop them.
				f.outstanding = f.outstanding[:0]
			} else {
				f.maxSeqSent = end
				f.seqValid = true
				if len(f.outstanding) < 64 {
					f.outstanding = append(f.outstanding, outstandingSeg{seqEnd: end, t: ev.T})
				}
			}
		}
	case ServerToClient:
		if ev.Flags.Has(packet.FlagACK) {
			kept := f.outstanding[:0]
			for _, o := range f.outstanding {
				if seqLE(o.seqEnd, ev.Ack) {
					f.ground.add(ev.T - o.t)
				} else {
					kept = append(kept, o)
				}
			}
			f.outstanding = kept
		}
		if len(ev.AppData) > 0 {
			f.feedTLSServer(ev)
		}
	}
}

// feedTLSServer watches for the ServerHello.
func (f *flowState) feedTLSServer(ev *SegmentEvent) {
	if f.tls == tlsDone || f.tls == tlsSawServerHello {
		return
	}
	if hasServerHello(ev.AppData) {
		f.tls = tlsSawServerHello
		f.tSrvHello = ev.T
	}
}

// hasServerHello reports whether a server payload carries a ServerHello,
// walking the record and handshake framing in place: an unknown content
// type anywhere rejects the whole payload, a handshake record whose
// messages do not frame exactly is skipped, and a trailing partial record
// is ignored.
func hasServerHello(data []byte) bool {
	found := false
	return packet.WalkTLSRecords(data, func(typ uint8, payload []byte) {
		if typ != packet.TLSRecordHandshake || found {
			return
		}
		hello := false
		found = packet.WalkTLSHandshakes(payload, func(typ uint8, _ []byte) {
			hello = hello || typ == packet.TLSHandshakeServerHello
		}) && hello
	}) && found
}

// feedTLSClient advances the handshake machine on client records; the
// first client handshake bytes after the ServerHello (the
// ClientKeyExchange/ChangeCipherSpec flight) close the satellite-RTT
// sample.
func (f *flowState) feedTLSClient(ev *SegmentEvent) {
	switch f.tls {
	case tlsIdle:
		if len(ev.AppData) > 0 && ev.AppData[0] == packet.TLSRecordHandshake {
			f.tls = tlsSawClientHello
		}
	case tlsSawServerHello:
		if len(ev.AppData) == 0 {
			return
		}
		t0 := ev.AppData[0]
		if t0 == packet.TLSRecordHandshake || t0 == packet.TLSRecordChangeCipherSpec {
			f.satRTT = ev.T - f.tSrvHello
			f.tls = tlsDone
		}
	}
}

func (f *flowState) observeUDP(ev *SegmentEvent, sink *Tracker) {
	if f.server.Port == 53 {
		f.observeDNS(ev, sink)
		return
	}
	if ev.Dir == ClientToServer && len(ev.AppData) > 0 && !f.dpi.done {
		f.dpi.feedClientUDP(ev.AppData)
	}
}

// observeDNS parses queries and responses and emits transaction records.
func (f *flowState) observeDNS(ev *SegmentEvent, sink *Tracker) {
	if len(ev.AppData) == 0 {
		return
	}
	var buf [255]byte
	msg, name, err := packet.ScanDNS(ev.AppData, buf[:0])
	if err != nil {
		return
	}
	if f.dnsPending == nil {
		f.dnsPending = make(map[uint16]dnsPending)
	}
	if !msg.QR {
		f.dnsPending[msg.ID] = dnsPending{t: ev.T, name: sink.names.intern(name)}
		return
	}
	req, ok := f.dnsPending[msg.ID]
	if !ok {
		return // unsolicited response
	}
	delete(f.dnsPending, msg.ID)
	rec := DNSRecord{
		Client:       f.client.Addr,
		Resolver:     f.server.Addr,
		Query:        req.name,
		Answer:       msg.Answer,
		RCode:        msg.RCode,
		T:            req.t,
		ResponseTime: ev.T - req.t,
	}
	sink.emitDNS(rec)
}

// closed reports whether TCP teardown completed.
func (f *flowState) closed() bool {
	return f.rstSeen || (f.finSeen[0] && f.finSeen[1])
}

// record materializes the final FlowRecord; its First10 is carved from the
// tracker's slab.
func (f *flowState) record(t *Tracker) FlowRecord {
	rec := FlowRecord{
		Client:    f.client.Addr,
		Server:    f.server.Addr,
		CPort:     f.client.Port,
		SPort:     f.server.Port,
		Domain:    f.dpi.domain,
		Start:     f.start,
		End:       f.last,
		BytesUp:   f.bytesUp,
		BytesDown: f.bytesDown,
		PktsUp:    f.pktsUp,
		PktsDown:  f.pktsDown,
		First10:   t.carve(f.first10[:f.n10]),
		GroundRTT: f.ground.stats(),
		SatRTT:    f.satRTT,
	}
	if f.isTCP {
		rec.Proto = f.dpi.classifyTCP(f.server.Port)
	} else if f.server.Port == 53 {
		rec.Proto = ProtoDNS
	} else {
		rec.Proto = f.dpi.classifyUDP(f.server.Port)
	}
	return rec
}
