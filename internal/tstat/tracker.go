package tstat

import (
	"fmt"
	"sort"
	"time"

	"satwatch/internal/cryptopan"
	"satwatch/internal/obs"
	"satwatch/internal/packet"
	"satwatch/internal/trace"
)

// Exported metrics (see OBSERVABILITY.md).
var (
	mEvents = obs.NewCounter("tstat_events_observed_total",
		"Segment events delivered to trackers (counted at Flush).", "")
	mFlowRecords = obs.NewCounter("tstat_flow_records_total",
		"Flow records emitted by tracker flushes.", "")
)

// Config tunes the tracker.
type Config struct {
	// TCPIdle / UDPIdle are the inactivity timeouts after which a flow is
	// considered finished and its record emitted.
	TCPIdle time.Duration
	UDPIdle time.Duration
	// FinLinger keeps a cleanly closed TCP flow around briefly for late
	// ACKs before emitting it.
	FinLinger time.Duration
	// Anonymizer, when set, anonymizes customer addresses on emission
	// (the paper's real-time Crypto-PAn step, §2.3).
	Anonymizer *cryptopan.Anonymizer
	// OnFlow/OnDNS, when set, stream records out instead of accumulating
	// them in memory.
	OnFlow func(FlowRecord)
	OnDNS  func(DNSRecord)
}

// DefaultConfig mirrors common Tstat timeouts.
func DefaultConfig() Config {
	return Config{TCPIdle: 5 * time.Minute, UDPIdle: time.Minute, FinLinger: 5 * time.Second}
}

// Tracker is the flow table. It is not safe for concurrent use; shard by
// FiveTuple.FastHash across trackers for parallel feeds (as the DPDK
// pipeline in the paper does).
type Tracker struct {
	cfg   Config
	flows map[packet.FiveTuple]*flowState
	now   time.Duration

	lastSweep time.Duration

	flowsOut []FlowRecord
	dnsOut   []DNSRecord

	// traced maps canonical tuples of sampled flows to their trace
	// handles; the handle is completed and finished when the flow record
	// is emitted (the probe is the last component to see the flow).
	traced map[packet.FiveTuple]*trace.Flow

	// Counters for operational visibility.
	Observed   int64
	DecodeErrs int64
}

// NewTracker builds a tracker.
func NewTracker(cfg Config) *Tracker {
	d := DefaultConfig()
	if cfg.TCPIdle <= 0 {
		cfg.TCPIdle = d.TCPIdle
	}
	if cfg.UDPIdle <= 0 {
		cfg.UDPIdle = d.UDPIdle
	}
	if cfg.FinLinger <= 0 {
		cfg.FinLinger = d.FinLinger
	}
	return &Tracker{cfg: cfg, flows: make(map[packet.FiveTuple]*flowState)}
}

// Observe feeds one segment event. tuple is oriented as sent (the event
// source is tuple.Src); the tracker derives the flow direction from the
// initiator it saw first.
func (t *Tracker) Observe(tuple packet.FiveTuple, ev SegmentEvent) {
	t.Observed++
	if ev.T > t.now {
		t.now = ev.T
	}
	key, _ := tuple.Canonical()
	f, ok := t.flows[key]
	if !ok {
		f = newFlowState(tuple.Src, tuple.Dst, tuple.Proto == packet.ProtoTCP, ev.T)
		t.flows[key] = f
	}
	if tuple.Src == f.client {
		ev.Dir = ClientToServer
	} else {
		ev.Dir = ServerToClient
	}
	f.observe(ev, t)

	// Amortized eviction sweep once per simulated second of trace time.
	if t.now-t.lastSweep >= time.Second {
		t.sweep()
	}
}

// FeedPacket decodes a raw IPv4 packet (pcap replay or live capture) and
// feeds it as a segment event — the packet frontend.
func (t *Tracker) FeedPacket(ts time.Duration, raw []byte) error {
	p, err := packet.Decode(raw)
	if err != nil {
		t.DecodeErrs++
		return fmt.Errorf("tstat: %w", err)
	}
	tuple, ok := packet.TupleOf(p)
	if !ok {
		t.DecodeErrs++
		return fmt.Errorf("tstat: packet without transport layer")
	}
	ev := SegmentEvent{
		T:       ts,
		Payload: len(p.AppPayload()),
		WireLen: len(raw),
		Packets: 1,
		AppData: p.AppPayload(),
	}
	if tcp := p.TCPLayer(); tcp != nil {
		ev.Flags = tcp.Flags
		ev.Seq = tcp.Seq
		ev.Ack = tcp.Ack
	}
	t.Observe(tuple, ev)
	return nil
}

// emitOrdered emits a batch of finished flows in a deterministic order
// (start time, then endpoints), so identical inputs produce identical
// logs regardless of map iteration order.
func (t *Tracker) emitOrdered(batch []*flowState) {
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if c := a.client.Addr.Compare(b.client.Addr); c != 0 {
			return c < 0
		}
		if a.client.Port != b.client.Port {
			return a.client.Port < b.client.Port
		}
		if c := a.server.Addr.Compare(b.server.Addr); c != 0 {
			return c < 0
		}
		return a.server.Port < b.server.Port
	})
	for _, f := range batch {
		t.emitFlow(f)
	}
}

// sweep emits flows that have been idle past their timeout or linger.
func (t *Tracker) sweep() {
	t.lastSweep = t.now
	var batch []*flowState
	for key, f := range t.flows {
		idle := t.now - f.last
		var done bool
		switch {
		case f.isTCP && f.closed() && idle >= t.cfg.FinLinger:
			done = true
		case f.isTCP && idle >= t.cfg.TCPIdle:
			done = true
		case !f.isTCP && idle >= t.cfg.UDPIdle:
			done = true
		}
		if done {
			batch = append(batch, f)
			delete(t.flows, key)
		}
	}
	t.emitOrdered(batch)
}

// Flush closes every active flow and returns all accumulated records.
// Streaming configurations (OnFlow/OnDNS) receive the remaining records
// through their callbacks and get empty slices here.
func (t *Tracker) Flush() ([]FlowRecord, []DNSRecord) {
	batch := make([]*flowState, 0, len(t.flows))
	for key, f := range t.flows {
		batch = append(batch, f)
		delete(t.flows, key)
	}
	t.emitOrdered(batch)
	flows, dns := t.flowsOut, t.dnsOut
	t.flowsOut, t.dnsOut = nil, nil
	mEvents.Add(t.Observed)
	mFlowRecords.Add(int64(len(flows)))
	return flows, dns
}

// Active returns the number of in-flight flows.
func (t *Tracker) Active() int { return len(t.flows) }

// AdvanceTime moves the tracker clock forward without an event and runs
// the idle sweep when due. Streaming consumers (the live pipeline) call
// it as simulated time passes so flows that went quiet are emitted even
// when no new traffic arrives on this shard. Like every other method it
// must be called from the tracker's owning goroutine.
func (t *Tracker) AdvanceTime(now time.Duration) {
	if now > t.now {
		t.now = now
	}
	if t.now-t.lastSweep >= time.Second {
		t.sweep()
	}
}

// TraceFlow registers a trace handle for the flow identified by tuple.
// When the tracker emits that flow's record it appends a
// tstat.handshake_rtt span (the probe's satellite-RTT measurement, when
// one was made) and finishes the handle. A nil fl is ignored.
func (t *Tracker) TraceFlow(tuple packet.FiveTuple, fl *trace.Flow) {
	if fl == nil {
		return
	}
	key, _ := tuple.Canonical()
	if t.traced == nil {
		t.traced = make(map[packet.FiveTuple]*trace.Flow)
	}
	t.traced[key] = fl
}

// finishTrace completes a registered trace handle at flow emission.
func (t *Tracker) finishTrace(f *flowState, rec *FlowRecord) {
	if len(t.traced) == 0 {
		return
	}
	proto := packet.ProtoUDP
	if f.isTCP {
		proto = packet.ProtoTCP
	}
	key, _ := packet.FiveTuple{Proto: proto, Src: f.client, Dst: f.server}.Canonical()
	fl, ok := t.traced[key]
	if !ok {
		return
	}
	delete(t.traced, key)
	if rec.SatRTT > 0 {
		fl.Span(trace.SpanHandshakeRTT, trace.SegProbe, rec.SatRTT, trace.Attrs{
			"proto": rec.Proto.String(), "events": rec.PktsUp + rec.PktsDown,
		})
	}
	fl.Finish()
}

func (t *Tracker) emitFlow(f *flowState) {
	rec := f.record()
	t.finishTrace(f, &rec)
	if t.cfg.Anonymizer != nil && rec.Client.Is4() {
		rec.Client = t.cfg.Anonymizer.MustAnonymize(rec.Client)
	}
	if t.cfg.OnFlow != nil {
		t.cfg.OnFlow(rec)
		return
	}
	t.flowsOut = append(t.flowsOut, rec)
}

func (t *Tracker) emitDNS(rec DNSRecord) {
	if t.cfg.Anonymizer != nil && rec.Client.Is4() {
		rec.Client = t.cfg.Anonymizer.MustAnonymize(rec.Client)
	}
	if t.cfg.OnDNS != nil {
		t.cfg.OnDNS(rec)
		return
	}
	t.dnsOut = append(t.dnsOut, rec)
}
