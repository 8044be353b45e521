package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/dist"
	"satwatch/internal/dnssim"
	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/packet"
	"satwatch/internal/pepmodel"
	"satwatch/internal/phy"
	"satwatch/internal/shaper"
	"satwatch/internal/tcpmodel"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// synthesizer turns flow intents into vantage-point segment events over
// the orbit's models and the deployment's beam loads.
type synthesizer struct {
	*models
	cfg Config
	// sched is the effective fault schedule (Config.Faults plus
	// constellation-contributed handover events).
	sched   *faults.Schedule
	tracker *tstat.Tracker
	loads   []*beamLoad // indexed by beam ID
	ports   map[int]*portAlloc
	// spare is a retired customer's allocator, reset to a new one's
	// state, for the next customer nextPort sees (see retirePorts).
	spare *portAlloc

	chCache   map[string][]byte // ClientHello bytes per SNI
	shBytes   []byte            // ServerHello + Certificate + HelloDone
	ckeBytes  []byte            // ClientKeyExchange + CCS + Finished
	opaqueTCP []byte            // an opaque TCP flow's first client payload
	opaqueUDP []byte            // an opaque UDP flow's first datagram

	// Per-flow message scratch: each message is encoded into its own
	// buffer, which is reused once the tracker (and the tap) returned. The
	// probe reads payloads in place and copies what it keeps.
	dnsQuery, dnsAnswer []byte
	hello, initial      []byte // a ClientHello, and a QUIC flow's Initial
	request             []byte // an HTTP flow's request head
	rtpProbe            []byte // an RTP flow's first packet

	// classes memoizes shaper.ClassifyFlow, a pure function of (domain,
	// server port) that runs a regexp cascade; a population draws a few
	// thousand distinct FQDNs. Owned by this synthesizer, so a scenario
	// swap (which rebuilds it) starts a fresh memo.
	classes map[classKey]shaper.Class

	// Per-flow fault state, reset at the top of flow() (each synthesizer
	// is single-goroutine). cutoff > 0 marks a gateway switchover during
	// the flow's lifetime: events at or past it are suppressed and the
	// first suppressed TCP event becomes a single RST. retxP is the
	// rain-driven per-lead-segment retransmission probability.
	cutoff time.Duration
	cutRST bool
	retxP  float64

	// tap, when set, receives every event the tracker does: WritePcap's
	// capture of the flows it samples.
	tap func(packet.FiveTuple, tstat.SegmentEvent)
}

type classKey struct {
	domain string
	port   uint16
}

// observe delivers one event to the tracker, and to the tap when one is
// set, unless a gateway switchover cut the flow first: the old gateway
// tears its proxied connections down, so the probe sees a reset at the
// switch instant and nothing after (the paper's mass flow resets on
// ground-station maintenance).
func (s *synthesizer) observe(tuple packet.FiveTuple, ev tstat.SegmentEvent) {
	if s.cutoff > 0 && ev.T >= s.cutoff {
		if s.cutRST || tuple.Proto != packet.ProtoTCP {
			return
		}
		s.cutRST = true
		ev = tstat.SegmentEvent{T: s.cutoff, Flags: packet.FlagRST, Packets: 1, WireLen: hdrLen}
	}
	s.tracker.Observe(tuple, ev)
	if s.tap != nil {
		s.tap(tuple, ev)
	}
}

const mss = tcpmodel.MSS

// headers per wire packet (IP+TCP), for WireLen accounting.
const hdrLen = 40

func (s *synthesizer) init() error {
	if s.ports != nil {
		return nil
	}
	s.ports = map[int]*portAlloc{}
	s.chCache = map[string][]byte{}
	s.classes = map[classKey]shaper.Class{}
	sh, err := (&packet.ServerHello{Version: packet.TLSVersion12, CipherSuite: 0xc02f}).AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("encode ServerHello: %w", err)
	}
	hs := append(sh, packet.OpaqueHandshake(packet.TLSHandshakeCertificate, 2800)...)
	hs = append(hs, packet.OpaqueHandshake(packet.TLSHandshakeServerHelloDone, 0)...)
	rec, err := (&packet.TLSRecord{Type: packet.TLSRecordHandshake, Version: packet.TLSVersion12, Payload: hs}).AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("encode server handshake record: %w", err)
	}
	s.shBytes = rec

	cke := packet.OpaqueHandshake(packet.TLSHandshakeClientKeyExchange, 66)
	rec, err = (&packet.TLSRecord{Type: packet.TLSRecordHandshake, Version: packet.TLSVersion12, Payload: cke}).AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("encode ClientKeyExchange record: %w", err)
	}
	rec, err = (&packet.TLSRecord{Type: packet.TLSRecordChangeCipherSpec, Version: packet.TLSVersion12, Payload: []byte{1}}).AppendBinary(rec)
	if err != nil {
		return fmt.Errorf("encode ChangeCipherSpec record: %w", err)
	}
	s.ckeBytes = rec

	s.opaqueTCP = []byte{0x16, 0x99, 0x01}
	s.opaqueUDP = make([]byte, 64)
	s.opaqueUDP[0] = 0x01 // neither QUIC long header nor RTP v2
	return nil
}

func (s *synthesizer) clientHello(sni string) ([]byte, error) {
	if b, ok := s.chCache[sni]; ok {
		return b, nil
	}
	hs, err := (&packet.ClientHello{Version: packet.TLSVersion12, ServerName: sni}).AppendBinary(s.hello[:0])
	if err != nil {
		return nil, fmt.Errorf("encode ClientHello %q: %w", sni, err)
	}
	s.hello = hs
	rec, err := (&packet.TLSRecord{Type: packet.TLSRecordHandshake, Version: packet.TLSVersion12, Payload: hs}).AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("encode ClientHello record %q: %w", sni, err)
	}
	s.chCache[sni] = rec
	return rec, nil
}

// classify is shaper.ClassifyFlow through the synthesizer's memo.
func (s *synthesizer) classify(domain string, port uint16) shaper.Class {
	k := classKey{domain, port}
	c, ok := s.classes[k]
	if !ok {
		c = shaper.ClassifyFlow(domain, port)
		s.classes[k] = c
	}
	return c
}

// portAlloc hands out a customer's ephemeral source ports.
type portAlloc struct {
	next uint16
	// busy maps issued ports to a conservative busy-until timestamp, so a
	// wrapped allocator never reissues a port whose previous flow the
	// probe could still be tracking (which would merge two flows sharing
	// a server into one 5-tuple).
	busy map[uint16]time.Duration
}

// portReuseGuard must exceed the tracker's largest inactivity window
// (TCP idle plus FIN linger) plus its one-second sweep cadence so a reused
// 5-tuple always lands on a fresh flow; flow advances the tracker to each
// intent's start before the intent takes a port.
const portReuseGuard = 6 * time.Minute

// nextPort issues an ephemeral port for a flow starting at start. Ports
// walk 1024..65535 and wrap; a wrapped port is reissued only once its
// previous flow has been idle past the tracker's sweep window.
func (s *synthesizer) nextPort(custID int, start time.Duration) uint16 {
	pa := s.ports[custID]
	if pa == nil {
		pa, s.spare = s.spare, nil
		if pa == nil {
			pa = &portAlloc{next: 1024, busy: map[uint16]time.Duration{}}
		}
		s.ports[custID] = pa
	}
	for tries := 0; tries < 1<<16; tries++ {
		p := pa.next
		if pa.next == 65535 {
			pa.next = 1024
		} else {
			pa.next++
		}
		if until, ok := pa.busy[p]; ok {
			if until+portReuseGuard > start {
				continue
			}
			delete(pa.busy, p)
		}
		return p
	}
	// Pathological: every port busy. Reuse the cursor anyway.
	return pa.next
}

// retirePorts ends a customer's port allocation once no flow of it can
// still be tracked: its allocator, reset and its map cleared, serves the
// next customer, so a batch worker keeps one port map alive rather than
// one per customer.
func (s *synthesizer) retirePorts(custID int) {
	if pa := s.ports[custID]; pa != nil {
		delete(s.ports, custID)
		pa.next = 1024
		clear(pa.busy)
		s.spare = pa
	}
}

// holdPort records when a flow on port p went quiet, blocking its reuse
// until the probe must have swept the flow.
func (s *synthesizer) holdPort(custID int, p uint16, end time.Duration) {
	if pa := s.ports[custID]; pa != nil && end > pa.busy[p] {
		pa.busy[p] = end
	}
}

// pathParams holds the per-flow sampled network conditions.
type pathParams struct {
	groundRTT time.Duration
	satRTT    time.Duration // prop + MAC + PEP, the satellite segment
	bneckBps  float64       // delivery bottleneck toward the customer
	upBps     float64
	// bypass marks a flow that fell off split-TCP during a PEP overload
	// window: its handshake legs and download RTT cross the satellite.
	bypass bool
	// retxP is the per-lead-segment retransmission probability induced
	// by rain-driven frame loss (0 in clear sky).
	retxP float64
	// degraded marks the flow as shaped by at least one fault event.
	degraded bool
}

func (s *synthesizer) samplePath(fi *workload.FlowIntent, region cdn.Region, class shaper.Class, r *dist.Rand, fl *trace.Flow) pathParams {
	c := fi.Customer
	h := hourOf(fi.Start)
	var bl *beamLoad
	if c.Beam >= 0 && c.Beam < len(s.loads) {
		bl = s.loads[c.Beam]
	}
	util := 0.0
	rho := 0.0
	if bl != nil {
		util = bl.util(h)
		rho = bl.pepRho(h, bl.beam.PEPFactor)
	}
	if util > 0.98 {
		util = 0.98
	}

	var p pathParams
	p.groundRTT = cdn.SampleGroundRTT(region, r)
	if s.cfg.AfricanGroundStation && region == cdn.RegionAfrica && c.Country.Continent == geo.Africa {
		// Ablation A2: a local gateway serves African-hosted content
		// without the hairpin through Italy.
		p.groundRTT = time.Duration(dist.LogNormalFromMedian(float64(35*time.Millisecond), 0.2).Sample(r))
	}
	sched := s.sched
	if extra := sched.GatewayRTTExtra(fi.Start); extra > 0 {
		// A gateway switchover is re-routing traffic through the backup
		// ground station: the detour adds a fixed RTT step.
		p.degraded = true
		p.groundRTT += extra
	}
	if !s.con.Static() {
		// Ground-segment diversity: the serving gateway rotates over the
		// day, and gateways away from the primary PoP pay extra ground
		// RTT toward the hosting regions.
		gw, extra := s.con.Gateway(c.Country, fi.Start)
		p.groundRTT += extra
		if fl != nil {
			fl.SetAttr("gateway", gw)
		}
	}
	if fl != nil {
		fl.Span(trace.SpanGroundRTT, trace.SegGround, p.groundRTT, trace.Attrs{"region": string(region)})
	}

	// Satellite segment: propagation + MAC access + PEP processing.
	ch, ok := s.channels[c.Country.Code]
	if !ok {
		ch = phy.ChannelAt(c.Country, s.con, fi.Start)
	}
	rain := 0.0
	if r.Bool(0.08) {
		rain = 0.6 + 0.4*r.Float64()
	}
	if front := sched.Rain(fi.Start, c.Beam); front > 0 {
		// A scheduled rain front is crossing the beam: the front's fade
		// depth overrides ambient weather, frames start failing (ARQ
		// repairs inflate the satellite RTT and retransmit segments),
		// and the degraded spectral efficiency makes the same offered
		// load fill a larger share of the beam.
		p.degraded = true
		if front > rain {
			rain = front
		}
		p.retxP = 8 * ch.FrameErrorRate(rain)
		if p.retxP > 0.3 {
			p.retxP = 0.3
		}
		if cf := ch.CapacityFactor(rain); cf > 0 && cf < 1 {
			util /= cf
			if util > 0.98 {
				util = 0.98
			}
		}
	}
	fer := ch.FrameErrorRate(rain)
	prop, ok := s.propRTT[c.Country.Code]
	if !ok {
		prop = s.con.SegmentRTT(c.Country, fi.Start)
	}
	phy.ObserveRTT(prop)
	// A disruptive satellite handover re-routing the beam damages flows
	// that start inside its window: the new path's RTT step, a
	// first-flight stall while it converges, and retransmit blips on the
	// lead segments. All pure functions of (schedule, flow start, beam).
	hoStep, hoStall, handover := sched.LEOHandover(fi.Start, c.Beam)
	if handover {
		p.degraded = true
		phy.CountHandover()
		if p.retxP < 0.12 {
			p.retxP = 0.12
		}
	}
	if fl != nil {
		fl.Span(trace.SpanPropagation, trace.SegSatellite, prop, trace.Attrs{
			"country":      string(c.Country.Code),
			"zenith_deg":   s.con.ZenithDeg(c.Country, fi.Start),
			"slant_passes": s.con.SlantPasses(),
		})
		if handover {
			fl.Span(trace.SpanHandover, trace.SegSatellite, hoStep+hoStall, trace.Attrs{
				"step_ms":  float64(hoStep) / float64(time.Millisecond),
				"stall_ms": float64(hoStall) / float64(time.Millisecond),
			})
		}
		fl.SetAttr("util", util)
		fl.SetAttr("fer", fer)
		fl.SetAttr("rho", rho)
	}
	if orho, ok := sched.PEPOverloadRho(fi.Start, c.Beam); ok {
		// PEP overload window: most new flows fall off split-TCP and
		// pay end-to-end GEO handshakes; the rest queue at the forced
		// saturation utilization (§6.1's multi-second setup sojourns).
		p.degraded = true
		if r.Bool(0.6) {
			p.bypass = true
			pepmodel.CountBypass()
		} else if orho > rho {
			rho = orho
		}
	}
	if !s.con.Static() && !p.bypass && !s.cfg.DisablePEP {
		// Adaptive split policy at LEO RTTs: the PEP's handshake benefit
		// (~2×propagation RTT) shrinks with the orbit, so when the M/M/1
		// setup sojourn at the beam's current rho would cost more than
		// the split saves, the operator forwards the flow end-to-end
		// instead of proxying it. A pure function of (prop, rho) — no
		// randomness — so it cannot perturb parallel determinism.
		if pepmodel.Default().Benefit(prop, rho) <= 0 {
			p.bypass = true
			pepmodel.CountBypass()
		}
	}
	sat := prop
	if handover {
		sat += hoStep + hoStall
	}
	if !s.cfg.DisableMAC {
		sat += s.mac.SampleUplinkTraced(util, fer, r, fl)
		sat += s.mac.SampleDownlinkTraced(util, fer, r, fl)
	}
	if !s.cfg.DisablePEP && !p.bypass {
		sat += pepmodel.Default().SetupDelayTraced(rho, r, fl)
	}
	p.satRTT = sat
	fl.SetTotal(sat)

	// Delivery bottleneck: plan shaping, beam congestion, terminal and
	// AP contention (§6.5's mechanisms).
	planBps := c.Plan.DownMbps * 1e6 / 8
	cong := 1.0
	if util > 0.5 {
		x := (util - 0.5) / 0.5
		cong = 1 - 0.55*x*x
	}
	term := 1.0
	if c.Country.Continent == geo.Africa {
		term = 0.85
	}
	apShare := 1.0
	if c.Multiplex > 1 {
		apShare = 1 / (1 + 0.06*float64(c.Multiplex-1))
	}
	qos := 1.0
	if class == shaper.ClassVideo {
		// The operator shapes streaming flows (§2.1 domain-specific
		// rules) to protect the shared beam.
		qos = 0.7
	}
	p.bneckBps = planBps * cong * term * apShare * qos
	if p.bneckBps < 50e3/8 {
		p.bneckBps = 50e3 / 8
	}
	p.upBps = c.Plan.UpMbps * 1e6 / 8 * cong * apShare
	if p.upBps < 25e3/8 {
		p.upBps = 25e3 / 8
	}
	if fl != nil {
		// The macro simulator applies plan shaping analytically (no
		// token-bucket tick on this path), so the shaper contribution is
		// the bottleneck itself, recorded as flow inputs.
		fl.SetAttr("bneck_mbps", p.bneckBps*8/1e6)
		fl.SetAttr("class", class.String())
	}
	return p
}

// flow synthesizes one intent into tracker events, recording the sampled
// flow's latency decomposition on fl (nil fl records nothing). Errors
// are serialization failures carrying the flow's context; the caller
// drops the customer and keeps the run alive.
func (s *synthesizer) flow(fi *workload.FlowIntent, r *dist.Rand, fl *trace.Flow) error {
	if err := s.init(); err != nil {
		return err
	}
	c := fi.Customer
	// The synthesizer's clock is the intent's start: bring the probe there
	// first, so a flow whose port nextPort may reissue has been swept even
	// on a shard the driver has not advanced lately (portReuseGuard).
	s.tracker.AdvanceTime(fi.Start)

	// Reset per-flow fault state, then resolve the flow's fate against
	// the schedule. All decisions are pure functions of (schedule, flow
	// start, beam) plus the flow's own forked random stream, so fault
	// runs stay byte-identical at any worker count.
	s.cutoff, s.cutRST, s.retxP = 0, false, 0
	sched := s.sched
	if ts, ok := sched.NextGatewaySwitch(fi.Start); ok {
		s.cutoff = ts
	}
	if sched.BeamDown(fi.Start, c.Beam) {
		s.failedFlow(fi, r, fl)
		mFlowsDegraded.Inc()
		return nil
	}

	// Server selection.
	var region cdn.Region
	var serverAddr netip.Addr
	var serverPort uint16
	if fi.Entry != nil {
		resolver := c.Resolver
		if s.cfg.ForceOperatorDNS {
			resolver, _ = dnssim.ByID(dnssim.ResolverOperator)
		}
		region = dnssim.SelectRegion(*fi.Entry, resolver, c.Country, r)
		serverAddr = cdn.ServerAddr(fi.Entry.Domain, region, r.IntN(4))
		switch fi.Proto {
		case cdn.AppHTTP:
			serverPort = 80
		default:
			serverPort = 443
		}
	} else {
		region = fi.OpaqueRegion
		serverAddr = fi.OpaqueServer
		switch fi.Proto {
		case cdn.AppTCPOther:
			serverPort = []uint16{1194, 8443, 22, 25}[r.IntN(4)]
		case cdn.AppRTP:
			serverPort = uint16(30000 + r.IntN(2000))
		default:
			serverPort = []uint16{3478, 27015, 4500}[r.IntN(3)]
		}
	}

	class := s.classify(fi.Domain, serverPort)
	if fl != nil {
		fl.SetMeta(c.Beam, string(c.Country.Code), hourOf(fi.Start)%24,
			fi.Proto.String(), fi.Domain, fi.Start)
	}
	path := s.samplePath(fi, region, class, r, fl)
	if path.degraded {
		mFlowsDegraded.Inc()
		if fl != nil {
			fl.SetAttr("faulted", true)
		}
	}
	s.retxP = path.retxP
	client := packet.Endpoint{Addr: c.Addr, Port: s.nextPort(c.ID, fi.Start)}
	server := packet.Endpoint{Addr: serverAddr, Port: serverPort}

	if fl != nil {
		// Hand the trace to the probe: the tracker appends its own
		// handshake-RTT measurement and finishes the tree when the flow
		// record is emitted.
		tupleProto := packet.ProtoUDP
		switch fi.Proto {
		case cdn.AppHTTPS, cdn.AppHTTP, cdn.AppTCPOther:
			tupleProto = packet.ProtoTCP
		}
		tuple := packet.FiveTuple{Proto: tupleProto, Src: client, Dst: server}
		s.tracker.TraceFlow(tuple, fl)
	}

	// DNS resolution precedes ~30% of catalog flows (the rest hit the
	// device/CPE cache).
	if fi.Entry != nil && r.Bool(0.3) {
		s.dnsTransaction(fi, c, serverAddr, r)
	}

	var end time.Duration
	switch fi.Proto {
	case cdn.AppHTTPS, cdn.AppHTTP, cdn.AppTCPOther:
		var err error
		end, err = s.tcpFlow(fi, client, server, path, r)
		if err != nil {
			return err
		}
	case cdn.AppQUIC:
		end = s.quicFlow(fi, client, server, path, r)
	case cdn.AppRTP:
		end = s.rtpFlow(fi, client, server, path, r)
	default:
		end = s.udpFlow(fi, client, server, path, r)
	}
	s.holdPort(c.ID, client.Port, end)
	return nil
}

// failedFlow synthesizes the vantage-point view of a flow started into a
// dead beam: the client's attempts leave the terminal but nothing comes
// back, so the probe logs an unanswered SYN train (or a couple of lone
// datagrams) with zero downstream bytes.
func (s *synthesizer) failedFlow(fi *workload.FlowIntent, r *dist.Rand, fl *trace.Flow) {
	c := fi.Customer
	var serverAddr netip.Addr
	var serverPort uint16
	if fi.Entry != nil {
		// Resolution is cached or stale; region choice is moot for a flow
		// that never leaves the beam, so pin the first candidate server.
		serverAddr = cdn.ServerAddr(fi.Entry.Domain, cdn.RegionEurope, 0)
		serverPort = 443
	} else {
		serverAddr = fi.OpaqueServer
		serverPort = 443
	}
	client := packet.Endpoint{Addr: c.Addr, Port: s.nextPort(c.ID, fi.Start)}
	server := packet.Endpoint{Addr: serverAddr, Port: serverPort}

	isTCP := false
	switch fi.Proto {
	case cdn.AppHTTPS, cdn.AppHTTP, cdn.AppTCPOther:
		isTCP = true
	}
	if fl != nil {
		fl.SetMeta(c.Beam, string(c.Country.Code), hourOf(fi.Start)%24,
			fi.Proto.String(), fi.Domain, fi.Start)
		fl.SetAttr("fault", "beam_outage")
		fl.SetAttr("faulted", true)
		defer fl.Finish()
	}
	end := fi.Start
	if isTCP {
		tuple := packet.FiveTuple{Proto: packet.ProtoTCP, Src: client, Dst: server}
		// SYN plus the kernel's first two retries (1 s, then 3 s backoff).
		for _, off := range []time.Duration{0, time.Second, 3 * time.Second} {
			s.observe(tuple, tstat.SegmentEvent{T: fi.Start + off, Flags: packet.FlagSYN, Packets: 1, WireLen: hdrLen + 12})
			end = fi.Start + off
		}
	} else {
		tuple := packet.FiveTuple{Proto: packet.ProtoUDP, Src: client, Dst: server}
		sz := 64 + r.IntN(400)
		for _, off := range []time.Duration{0, 2 * time.Second} {
			s.observe(tuple, tstat.SegmentEvent{T: fi.Start + off, Payload: sz, WireLen: sz + 28, Packets: 1})
			end = fi.Start + off
		}
	}
	s.holdPort(c.ID, client.Port, end)
}

// dnsTransaction emits the query/response pair observed at the vantage
// point: the response time is the resolver leg from the ground station.
func (s *synthesizer) dnsTransaction(fi *workload.FlowIntent, c *workload.Customer, answer netip.Addr, r *dist.Rand) {
	resolver := c.Resolver
	if s.cfg.ForceOperatorDNS {
		resolver, _ = dnssim.ByID(dnssim.ResolverOperator)
	}
	respTime := resolver.SampleResponseTime(r)
	tq := fi.Start - respTime - 30*time.Millisecond
	if tq < 0 {
		tq = 0
	}
	id := uint16(r.Uint64())
	q := &packet.DNS{ID: id, RD: true,
		Questions: []packet.DNSQuestion{{Name: fi.Domain, Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	qb, err := q.AppendBinary(s.dnsQuery[:0])
	if err != nil {
		return
	}
	s.dnsQuery = qb
	resp := &packet.DNS{ID: id, QR: true, RA: true, Questions: q.Questions,
		Answers: []packet.DNSRR{{Name: fi.Domain, Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Addr: answer}}}
	rb, err := resp.AppendBinary(s.dnsAnswer[:0])
	if err != nil {
		return
	}
	s.dnsAnswer = rb
	cp := packet.Endpoint{Addr: c.Addr, Port: s.nextPort(c.ID, tq)}
	rp := packet.Endpoint{Addr: resolver.Addr, Port: 53}
	c2r := packet.FiveTuple{Proto: packet.ProtoUDP, Src: cp, Dst: rp}

	if s.sched.ResolverDown(tq, string(resolver.ID)) {
		// Resolver outage: the stub resolver fires its query and walks the
		// retry ladder; a retry is answered only once the resolver is back.
		end := tq
		outage := 0
		attempts := []time.Duration{tq}
		for _, backoff := range dnssim.RetryBackoff {
			attempts = append(attempts, attempts[len(attempts)-1]+backoff)
		}
		for _, ta := range attempts {
			if !s.sched.ResolverDown(ta, string(resolver.ID)) {
				s.observe(c2r, tstat.SegmentEvent{T: ta, Payload: len(qb), WireLen: len(qb) + 28, Packets: 1, AppData: qb})
				s.observe(c2r.Reverse(), tstat.SegmentEvent{T: ta + respTime, Payload: len(rb), WireLen: len(rb) + 28, Packets: 1, AppData: rb})
				end = ta + respTime
				break
			}
			s.observe(c2r, tstat.SegmentEvent{T: ta, Payload: len(qb), WireLen: len(qb) + 28, Packets: 1, AppData: qb})
			outage++
			end = ta
		}
		dnssim.CountOutageQueries(outage)
		s.holdPort(c.ID, cp.Port, end)
		return
	}

	s.observe(c2r, tstat.SegmentEvent{T: tq, Payload: len(qb), WireLen: len(qb) + 28, Packets: 1, AppData: qb})
	s.observe(c2r.Reverse(), tstat.SegmentEvent{T: tq + respTime, Payload: len(rb), WireLen: len(rb) + 28, Packets: 1, AppData: rb})
	s.holdPort(c.ID, cp.Port, tq+respTime)
}

// tcpFlow synthesizes the PEP-side TCP conversation and returns the time
// of its last event.
func (s *synthesizer) tcpFlow(fi *workload.FlowIntent, client, server packet.Endpoint, path pathParams, r *dist.Rand) (time.Duration, error) {
	c2s := packet.FiveTuple{Proto: packet.ProtoTCP, Src: client, Dst: server}
	s2c := c2s.Reverse()
	g := path.groundRTT
	ms := time.Millisecond

	t := fi.Start
	seq := uint32(1)
	// Handshake (ground-station PEP ↔ server). A bypassed flow's final
	// handshake ACK comes from the real client across the satellite: the
	// probe's handshake RTT jumps from the ground leg to the GEO leg.
	ackGap := ms
	if path.bypass {
		ackGap = path.satRTT
	}
	s.observe(c2s, tstat.SegmentEvent{T: t, Flags: packet.FlagSYN, Packets: 1, WireLen: hdrLen + 12})
	s.observe(s2c, tstat.SegmentEvent{T: t + g, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1, WireLen: hdrLen + 12})
	s.observe(c2s, tstat.SegmentEvent{T: t + g + ackGap, Flags: packet.FlagACK, Ack: 1, Packets: 1, WireLen: hdrLen})

	dataStart := t + g + ackGap + ms
	switch fi.Proto {
	case cdn.AppHTTPS:
		ch, err := s.clientHello(fi.Domain)
		if err != nil {
			return 0, err
		}
		tCH := t + g + ackGap + ms
		s.observe(c2s, tstat.SegmentEvent{T: tCH, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(ch), WireLen: hdrLen + len(ch), Packets: 1, AppData: ch})
		seq += uint32(len(ch))
		s.observe(s2c, tstat.SegmentEvent{T: tCH + g, Flags: packet.FlagACK, Ack: seq, Packets: 1, WireLen: hdrLen})
		tSH := tCH + g + ms
		s.observe(s2c, tstat.SegmentEvent{T: tSH, Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: len(s.shBytes), WireLen: 3*hdrLen + len(s.shBytes), Packets: 3, AppData: s.shBytes})
		// The client's next flight crosses the satellite: this gap is
		// the probe's satellite-RTT estimate (§2.2).
		tCKE := tSH + path.satRTT
		s.observe(c2s, tstat.SegmentEvent{T: tCKE, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(s.ckeBytes), WireLen: hdrLen + len(s.ckeBytes), Packets: 1, AppData: s.ckeBytes})
		seq += uint32(len(s.ckeBytes))
		s.observe(s2c, tstat.SegmentEvent{T: tCKE + g, Flags: packet.FlagACK, Ack: seq, Packets: 1, WireLen: hdrLen})
		dataStart = tCKE + g + ms
	case cdn.AppHTTP:
		req, _ := (&packet.HTTPRequest{Method: "GET", Target: "/", Headers: []packet.HTTPHeader{{Name: "Host", Value: fi.Domain}}}).AppendBinary(s.request[:0])
		s.request = req
		tReq := t + g + ackGap + ms
		s.observe(c2s, tstat.SegmentEvent{T: tReq, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(req), WireLen: hdrLen + len(req), Packets: 1, AppData: req})
		seq += uint32(len(req))
		s.observe(s2c, tstat.SegmentEvent{T: tReq + g, Flags: packet.FlagACK, Ack: seq, Packets: 1, WireLen: hdrLen})
		dataStart = tReq + g + ms
	default: // opaque TCP: first client payload right after the handshake
		first := 64 + r.IntN(400)
		s.observe(c2s, tstat.SegmentEvent{T: t + g + ackGap + ms, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: first, WireLen: hdrLen + first, Packets: 1, AppData: s.opaqueTCP})
		seq += uint32(first)
		s.observe(s2c, tstat.SegmentEvent{T: t + g + ackGap + ms + g, Flags: packet.FlagACK, Ack: seq, Packets: 1, WireLen: hdrLen})
		dataStart = t + 2*g + ackGap + 2*ms
	}

	// Download phase. A bypassed flow's congestion control runs end to
	// end: slow start clocks on the full GEO RTT with no PEP buffer
	// absorbing it (the exact overhead split-TCP exists to hide).
	dlRTT := g
	pepBuf := pepmodel.Default().PerUserBuffer
	if path.bypass {
		dlRTT = g + path.satRTT
		pepBuf = 0
	}
	tl := tcpmodel.Compute(fi.Down, tcpmodel.Params{RTT: dlRTT, BottleneckBps: path.bneckBps, InitialWindow: 10, PEPBuffer: pepBuf})
	durData := tl.LastData - tl.FirstData
	const maxDur = 4 * time.Hour
	if durData > maxDur {
		durData = maxDur
	}
	endData := s.emitDownload(c2s, s2c, dataStart, durData, fi.Down, seq, r)

	// Upload phase (client payload beyond the request).
	if fi.Up > 2<<10 {
		upDur := time.Duration(float64(fi.Up) / path.upBps * float64(time.Second))
		if upDur > maxDur {
			upDur = maxDur
		}
		tEnd := s.emitUpload(c2s, s2c, dataStart, upDur, fi.Up, &seq, path.groundRTT)
		if tEnd > endData {
			endData = tEnd
		}
	}

	// Teardown.
	s.observe(c2s, tstat.SegmentEvent{T: endData + 2*ms, Flags: packet.FlagFIN | packet.FlagACK, Seq: seq, Packets: 1, WireLen: hdrLen})
	s.observe(s2c, tstat.SegmentEvent{T: endData + 2*ms + g, Flags: packet.FlagFIN | packet.FlagACK, Ack: seq + 1, Packets: 1, WireLen: hdrLen})
	return endData + 2*ms + g, nil
}

// emitDownload spreads the server→client bytes over the transfer window:
// the first segments individually (the probe logs first-10 timings), the
// rest as burst events with exact byte/packet counts.
func (s *synthesizer) emitDownload(c2s, s2c packet.FiveTuple, start time.Duration, dur time.Duration, bytes int64, clientSeq uint32, r *dist.Rand) time.Duration {
	if bytes <= 0 {
		return start
	}
	segs := (bytes + mss - 1) / mss
	lead := segs
	if lead > 6 {
		lead = 6
	}
	leadGap := dur / time.Duration(lead*4+1)
	tv := start
	var sent int64
	srvSeq := uint32(1)
	for i := int64(0); i < lead; i++ {
		n := int64(mss)
		if bytes-sent < n {
			n = bytes - sent
		}
		s.observe(s2c, tstat.SegmentEvent{T: tv, Flags: packet.FlagACK, Seq: srvSeq, Payload: int(n), WireLen: hdrLen + int(n), Packets: 1})
		if s.retxP > 0 && r.Bool(s.retxP) {
			// Rain-window frame loss: the lead segment is repaired by a
			// retransmission the probe sees as a duplicate (same Seq),
			// inflating the flow's packet and byte counts.
			s.observe(s2c, tstat.SegmentEvent{T: tv + 40*time.Millisecond, Flags: packet.FlagACK, Seq: srvSeq, Payload: int(n), WireLen: hdrLen + int(n), Packets: 1})
		}
		srvSeq += uint32(n)
		sent += n
		tv += leadGap
	}
	remaining := bytes - sent
	if remaining > 0 {
		bursts := int64(8)
		if remaining/mss < bursts {
			bursts = remaining/mss + 1
		}
		burstGap := (start + dur - tv) / time.Duration(bursts)
		per := remaining / bursts
		for i := int64(0); i < bursts; i++ {
			n := per
			if i == bursts-1 {
				n = remaining - per*(bursts-1)
			}
			if n <= 0 {
				continue
			}
			pkts := int((n + mss - 1) / mss)
			s.observe(s2c, tstat.SegmentEvent{T: tv, Flags: packet.FlagACK, Seq: srvSeq, Payload: int(n), WireLen: int(n) + pkts*hdrLen, Packets: pkts})
			srvSeq += uint32(n)
			// Delayed ACKs from the PEP side: about one per two
			// data packets, aggregated alongside the burst.
			acks := pkts / 2
			if acks > 0 {
				s.observe(c2s, tstat.SegmentEvent{T: tv + time.Millisecond, Flags: packet.FlagACK, Ack: srvSeq, Packets: acks, WireLen: acks * hdrLen})
			}
			tv += burstGap
		}
	}
	return tv
}

// emitUpload spreads client→server bytes over the upload window; server
// ACKs arrive a ground RTT later, feeding the probe's RTT estimator.
func (s *synthesizer) emitUpload(c2s, s2c packet.FiveTuple, start time.Duration, dur time.Duration, bytes int64, seq *uint32, g time.Duration) time.Duration {
	bursts := int64(6)
	if bytes/mss < bursts {
		bursts = bytes/mss + 1
	}
	gap := dur / time.Duration(bursts)
	tv := start + 3*time.Millisecond
	per := bytes / bursts
	for i := int64(0); i < bursts; i++ {
		n := per
		if i == bursts-1 {
			n = bytes - per*(bursts-1)
		}
		if n <= 0 {
			continue
		}
		pkts := int((n + mss - 1) / mss)
		s.observe(c2s, tstat.SegmentEvent{T: tv, Flags: packet.FlagACK, Seq: *seq, Payload: int(n), WireLen: int(n) + pkts*hdrLen, Packets: pkts})
		*seq += uint32(n)
		s.observe(s2c, tstat.SegmentEvent{T: tv + g, Flags: packet.FlagACK, Ack: *seq, Packets: (pkts + 1) / 2, WireLen: hdrLen * ((pkts + 1) / 2)})
		tv += gap
	}
	return tv + g
}

// quicFlow synthesizes a QUIC conversation (UDP is not PEP-accelerated,
// §2.1, so the whole handshake crosses the satellite). Returns the time
// of its last event.
func (s *synthesizer) quicFlow(fi *workload.FlowIntent, client, server packet.Endpoint, path pathParams, r *dist.Rand) time.Duration {
	c2s := packet.FiveTuple{Proto: packet.ProtoUDP, Src: client, Dst: server}
	s2c := c2s.Reverse()

	hs, err := (&packet.ClientHello{Version: packet.TLSVersion12, ServerName: fi.Domain}).AppendBinary(s.hello[:0])
	if err != nil {
		return fi.Start
	}
	s.hello = hs
	var dcid [8]byte
	for i := range dcid {
		dcid[i] = byte(r.Uint64())
	}
	ini, err := (&packet.QUICInitial{Version: packet.QUICVersion1, DCID: dcid[:], CryptoPayload: hs}).AppendBinary(s.initial[:0])
	if err != nil {
		return fi.Start
	}
	s.initial = ini
	t := fi.Start
	g := path.groundRTT
	s.observe(c2s, tstat.SegmentEvent{T: t, Payload: 1252, WireLen: 1280, Packets: 1, AppData: ini})
	s.observe(s2c, tstat.SegmentEvent{T: t + g, Payload: 3600, WireLen: 3684, Packets: 3})
	// The client's handshake completion crosses the satellite.
	s.observe(c2s, tstat.SegmentEvent{T: t + g + path.satRTT, Payload: 120, WireLen: 148, Packets: 1})

	tl := tcpmodel.Compute(fi.Down, tcpmodel.Params{RTT: g + path.satRTT, BottleneckBps: path.bneckBps, InitialWindow: 10})
	dur := tl.LastData - tl.FirstData
	if dur > 4*time.Hour {
		dur = 4 * time.Hour
	}
	s.emitDatagramBurst(s2c, t+g+path.satRTT+g, dur, fi.Down, 10)
	if fi.Up > 2<<10 {
		s.emitDatagramBurst(c2s, t+g+path.satRTT+g, dur, fi.Up, 6)
	}
	return t + g + path.satRTT + g + dur
}

// rtpFlow synthesizes a real-time media session: constant-rate packets in
// both directions for the call duration. Returns the time of its last
// event.
func (s *synthesizer) rtpFlow(fi *workload.FlowIntent, client, server packet.Endpoint, path pathParams, r *dist.Rand) time.Duration {
	c2s := packet.FiveTuple{Proto: packet.ProtoUDP, Src: client, Dst: server}
	s2c := c2s.Reverse()
	rtp, err := (&packet.RTP{PayloadType: 111, Sequence: uint16(r.Uint64()), SSRC: uint32(r.Uint64())}).AppendBinary(s.rtpProbe[:0])
	if err != nil {
		return fi.Start
	}
	probe := append(rtp, make([]byte, 148)...)
	s.rtpProbe = probe
	// First packet carries DPI-visible RTP bytes.
	s.observe(c2s, tstat.SegmentEvent{T: fi.Start, Payload: len(probe), WireLen: len(probe) + 28, Packets: 1, AppData: probe})
	const rateBps = 80_000.0 / 8
	dur := time.Duration(float64(fi.Down) / rateBps * float64(time.Second))
	if dur > time.Hour {
		dur = time.Hour
	}
	s.emitDatagramBurst(s2c, fi.Start+path.groundRTT, dur, fi.Down, 10)
	s.emitDatagramBurst(c2s, fi.Start+10*time.Millisecond, dur, fi.Up, 10)
	return fi.Start + path.groundRTT + dur
}

// udpFlow synthesizes opaque UDP exchanges. Returns the time of its last
// event.
func (s *synthesizer) udpFlow(fi *workload.FlowIntent, client, server packet.Endpoint, path pathParams, r *dist.Rand) time.Duration {
	c2s := packet.FiveTuple{Proto: packet.ProtoUDP, Src: client, Dst: server}
	s2c := c2s.Reverse()
	first := s.opaqueUDP
	s.observe(c2s, tstat.SegmentEvent{T: fi.Start, Payload: len(first), WireLen: len(first) + 28, Packets: 1, AppData: first})
	dur := time.Duration(30+r.IntN(300)) * time.Second
	s.emitDatagramBurst(s2c, fi.Start+path.groundRTT, dur, fi.Down, 5)
	s.emitDatagramBurst(c2s, fi.Start+20*time.Millisecond, dur, fi.Up, 4)
	return fi.Start + path.groundRTT + dur
}

// emitDatagramBurst spreads bytes across up to n burst events.
func (s *synthesizer) emitDatagramBurst(dir packet.FiveTuple, start time.Duration, dur time.Duration, bytes int64, n int64) {
	if bytes <= 0 {
		return
	}
	const dgram = 1200
	if bytes/dgram < n {
		n = bytes/dgram + 1
	}
	gap := dur / time.Duration(n)
	per := bytes / n
	tv := start
	for i := int64(0); i < n; i++ {
		sz := per
		if i == n-1 {
			sz = bytes - per*(n-1)
		}
		if sz <= 0 {
			continue
		}
		pkts := int((sz + dgram - 1) / dgram)
		s.observe(dir, tstat.SegmentEvent{T: tv, Payload: int(sz), WireLen: int(sz) + pkts*28, Packets: pkts})
		tv += gap
	}
}
