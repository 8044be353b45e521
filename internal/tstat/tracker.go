package tstat

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
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
		"Flow records emitted by trackers (counted at Flush).", "")
)

// The inactivity timeouts after which a flow is considered finished and
// its record emitted, the common Tstat values. finLinger keeps a cleanly
// closed TCP flow around briefly for late ACKs.
const (
	tcpIdle   = 5 * time.Minute
	udpIdle   = time.Minute
	finLinger = 5 * time.Second
)

// Config tunes the tracker.
type Config struct {
	// Anonymizer, when set, anonymizes customer addresses on emission
	// (the paper's real-time Crypto-PAn step, §2.3).
	Anonymizer *cryptopan.Anonymizer
	// OnFlow/OnDNS receive every record as it is emitted: they are a
	// tracker's one way out. A nil callback drops its records.
	OnFlow func(FlowRecord)
	OnDNS  func(DNSRecord)
}

// Tracker is the flow table. It is not safe for concurrent use; parallel
// feeds shard by customer across trackers (the live pipeline by customer ID
// modulo workers, batch synthesis by customer stride), so every event of a
// flow reaches one tracker on one goroutine, as the DPDK pipeline in the
// paper pins a flow to one core, and a tracker's memos cover only its
// shard's flows and customers.
//
// A tracker remembers the flow its previous Observe reached and matches the
// next tuple against it, in either orientation, before hashing: a
// synthesized flow arrives as one run of events, so the table is hashed
// about once per flow. The memo is cleared wherever a flow leaves the table
// (sweep, Flush), so it never names an evicted flow.
//
// The driver owns the clock: event timestamps never move it (a synthesizer
// hands the tracker a flow's whole future at once), only AdvanceTime does,
// so a flow is emitted when the driver's clock passes its end plus linger
// or idle timeout, as a probe logs it. Flows observed since the last sweep
// are filed on a min-heap by that deadline, so a sweep visits only what is
// due, not the whole table.
type Tracker struct {
	cfg   Config
	flows map[packet.FiveTuple]*flowState
	now   time.Duration
	// last is the flow the previous Observe reached, nil after an eviction.
	last *flowState

	lastSweep time.Duration
	// touched lists the flows observed since the last sweep, each once.
	touched []*flowState
	// due is the deadline min-heap; an entry whose gen is not its flow's
	// current one is stale and skipped.
	due []dueEntry
	// batch is emitOrdered's reusable scratch.
	batch []*flowState
	// free holds emitted flow states for reuse, so a warm tracker
	// allocates no flow state.
	free []*flowState
	// slab is where records' First10 slices are carved from: once warm,
	// one allocation per about slabFlows flows.
	slab []time.Duration

	// traced maps canonical tuples of sampled flows to their trace
	// handles; the handle is completed and finished when the flow record
	// is emitted (the probe is the last component to see the flow).
	traced map[packet.FiveTuple]*trace.Flow

	// anon memoizes Config.Anonymizer per client address: a tracker sees
	// only its shard's customers, and Crypto-PAn costs 32 AES blocks.
	anon map[netip.Addr]netip.Addr
	// names interns the domains DPI and the DNS path read, for the same
	// reason: a shard's customers keep naming the same servers.
	names nameMemo

	// observed counts segment events; flushedEvents is the part of it
	// already counted into mEvents; emitted counts flow records since the
	// last Flush.
	observed      int64
	flushedEvents int64
	emitted       int64
}

// dueEntry files a flow on the deadline heap.
type dueEntry struct {
	at  time.Duration
	gen uint32
	f   *flowState
}

// NewTracker builds a tracker.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg, flows: make(map[packet.FiveTuple]*flowState), names: make(nameMemo)}
}

// Observe feeds one segment event. tuple is oriented as sent (the event
// source is tuple.Src); the tracker derives the flow direction from the
// initiator it saw first. Observe never advances time and never evicts a
// flow; only AdvanceTime does.
func (t *Tracker) Observe(tuple packet.FiveTuple, ev SegmentEvent) {
	t.observed++
	f := t.last
	if f == nil || !f.carries(tuple) {
		key, _ := tuple.Canonical()
		var ok bool
		if f, ok = t.flows[key]; !ok {
			f = t.newFlow()
			f.reset(key, tuple.Src, tuple.Dst, tuple.Proto == packet.ProtoTCP, ev.T)
			t.flows[key] = f
		}
		t.last = f
	}
	if !f.touched {
		f.touched = true
		t.touched = append(t.touched, f)
	}
	if tuple.Src == f.client {
		ev.Dir = ClientToServer
	} else {
		ev.Dir = ServerToClient
	}
	f.observe(&ev, t)
}

// newFlow takes a state off the free list, or allocates one.
func (t *Tracker) newFlow() *flowState {
	n := len(t.free)
	if n == 0 {
		return &flowState{dpi: dpiState{names: t.names}}
	}
	f := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return f
}

// slabFlows is how many full First10 slices one slab holds.
const slabFlows = 1024

// carve copies first10 into the slab and returns the copy, capped at its
// length so that an append to one record's First10 never writes into the
// next record's.
func (t *Tracker) carve(first10 []time.Duration) []time.Duration {
	if cap(t.slab)-len(t.slab) < len(first10) {
		// Slabs double up to slabFlows flows' worth, so a tracker that
		// logs a handful of flows does not pay for a thousand.
		t.slab = make([]time.Duration, 0, min(max(2*cap(t.slab), 64), slabFlows*10))
	}
	n := len(t.slab)
	t.slab = append(t.slab, first10...)
	m := len(t.slab)
	return t.slab[n:m:m]
}

// FeedPacket decodes a raw IPv4 packet (pcap replay or live capture),
// advances the clock to its capture timestamp and feeds it as a segment
// event — the packet frontend. The clock moves first, so a packet that
// arrives after its flow's idle timeout opens a new flow whatever other
// traffic the capture carried in between.
func (t *Tracker) FeedPacket(ts time.Duration, raw []byte) error {
	p, err := packet.Decode(raw)
	if err != nil {
		return fmt.Errorf("tstat: %w", err)
	}
	tuple, ok := p.Tuple()
	if !ok {
		return fmt.Errorf("tstat: packet without transport layer")
	}
	ev := SegmentEvent{
		T:       ts,
		Payload: len(p.Payload),
		WireLen: len(raw),
		Packets: 1,
		AppData: p.Payload,
	}
	if p.TCP != nil {
		ev.Flags = p.TCP.Flags
		ev.Seq = p.TCP.Seq
		ev.Ack = p.TCP.Ack
	}
	t.AdvanceTime(ts)
	t.Observe(tuple, ev)
	return nil
}

// emitOrdered emits a batch of finished flows in a deterministic order
// (start time, then endpoints, then protocol: a total order over the flows
// a tracker holds at once), so identical inputs produce identical logs
// regardless of map iteration or heap order. The batch is t.batch's
// storage and is handed back for reuse; the emitted states go on the free
// list.
func (t *Tracker) emitOrdered(batch []*flowState) {
	slices.SortFunc(batch, func(a, b *flowState) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		if c := a.client.Addr.Compare(b.client.Addr); c != 0 {
			return c
		}
		if c := cmp.Compare(a.client.Port, b.client.Port); c != 0 {
			return c
		}
		if c := a.server.Addr.Compare(b.server.Addr); c != 0 {
			return c
		}
		if c := cmp.Compare(a.server.Port, b.server.Port); c != 0 {
			return c
		}
		return cmp.Compare(a.key.Proto, b.key.Proto)
	})
	for _, f := range batch {
		t.emitFlow(f)
	}
	t.free = append(t.free, batch...)
	clear(batch)
	t.batch = batch[:0]
}

// deadline is the clock reading at which f is due: its last event plus the
// FIN linger (closed TCP), the TCP idle timeout (open TCP) or the UDP idle
// timeout.
func (t *Tracker) deadline(f *flowState) time.Duration {
	switch {
	case !f.isTCP:
		return f.last + udpIdle
	case f.closed():
		return f.last + finLinger
	default:
		return f.last + tcpIdle
	}
}

// sweep emits the flows due at t.now. It first files the flows touched
// since the last sweep: one without a heap entry, or whose deadline moved
// earlier than its entry's, gets a new entry (superseding the old one); one
// whose deadline moved later keeps its entry and is refiled when that entry
// comes due. So every active flow has one live entry no later than its
// deadline, and popping the entries due at t.now reaches every flow a scan
// of the whole table would evict, and no other.
func (t *Tracker) sweep() {
	t.lastSweep = t.now
	t.last = nil
	for _, f := range t.touched {
		f.touched = false
		if d := t.deadline(f); f.due == 0 || d < f.due {
			t.file(f, d)
		}
	}
	clear(t.touched)
	t.touched = t.touched[:0]
	batch := t.batch
	for len(t.due) > 0 && t.due[0].at <= t.now {
		e := t.popDue()
		f := e.f
		if e.gen != f.gen {
			continue
		}
		if d := t.deadline(f); d > t.now {
			t.file(f, d)
			continue
		}
		delete(t.flows, f.key)
		batch = append(batch, f)
	}
	t.emitOrdered(batch)
}

// file pushes a heap entry for f due at d, superseding f's previous one.
func (t *Tracker) file(f *flowState, d time.Duration) {
	f.gen++
	f.due = d
	h := append(t.due, dueEntry{at: d, gen: f.gen, f: f})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	t.due = h
}

// popDue removes and returns the earliest heap entry.
func (t *Tracker) popDue() dueEntry {
	h := t.due
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], dueEntry{}
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].at < h[m].at {
			m = r
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	t.due = h
	return top
}

// Flush ends the capture: it closes every active flow, emitting its
// record through OnFlow/OnDNS, and resets the clock, so the tracker can
// carry on with an independent timeline (batch synthesis flushes at each
// customer boundary: 5-tuples are per customer).
func (t *Tracker) Flush() {
	t.now, t.lastSweep = 0, 0
	t.last = nil
	clear(t.touched)
	t.touched = t.touched[:0]
	clear(t.due)
	t.due = t.due[:0]
	batch := t.batch
	for _, f := range t.flows {
		batch = append(batch, f)
	}
	clear(t.flows)
	t.emitOrdered(batch)
	mEvents.Add(t.observed - t.flushedEvents)
	t.flushedEvents = t.observed
	mFlowRecords.Add(t.emitted)
	t.emitted = 0
}

// Active returns the number of in-flight flows.
func (t *Tracker) Active() int { return len(t.flows) }

// AdvanceTime moves the tracker clock forward (never back) and, once per
// simulated second, emits the flows whose FIN linger or idle timeout has
// passed. It is the only thing that moves time: the live pipeline calls it
// as its simulated clock passes, pcap replay (FeedPacket) with each
// packet's capture time. Like every other method it must be called from
// the tracker's owning goroutine.
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
	fl, ok := t.traced[f.key]
	if !ok {
		return
	}
	delete(t.traced, f.key)
	if rec.SatRTT > 0 {
		fl.Span(trace.SpanHandshakeRTT, trace.SegProbe, rec.SatRTT, trace.Attrs{
			"proto": rec.Proto.String(), "events": rec.PktsUp + rec.PktsDown,
		})
	}
	fl.Finish()
}

func (t *Tracker) emitFlow(f *flowState) {
	t.emitted++
	rec := f.record(t)
	t.finishTrace(f, &rec)
	rec.Client = t.anonymize(rec.Client)
	if t.cfg.OnFlow != nil {
		t.cfg.OnFlow(rec)
	}
}

func (t *Tracker) emitDNS(rec DNSRecord) {
	rec.Client = t.anonymize(rec.Client)
	if t.cfg.OnDNS != nil {
		t.cfg.OnDNS(rec)
	}
}

// anonymize applies Config.Anonymizer to an IPv4 client address through the
// tracker's memo; IPv6 addresses, and every address when no anonymizer is
// set, pass through.
func (t *Tracker) anonymize(a netip.Addr) netip.Addr {
	if t.cfg.Anonymizer == nil || !a.Is4() {
		return a
	}
	out, ok := t.anon[a]
	if !ok {
		if t.anon == nil {
			t.anon = make(map[netip.Addr]netip.Addr)
		}
		out = t.cfg.Anonymizer.MustAnonymize(a)
		t.anon[a] = out
	}
	return out
}

// maxNames bounds a nameMemo: a capture can carry any number of distinct
// names, and the live daemon's trackers never end.
const maxNames = 1 << 16

// nameMemo interns names read off the wire, so a name seen before costs a
// map probe instead of a string. A nil memo converts every time.
type nameMemo map[string]string

func (m nameMemo) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if m == nil {
		return string(b)
	}
	if s, ok := m[string(b)]; ok {
		return s
	}
	if len(m) >= maxNames {
		clear(m)
	}
	s := string(b)
	m[s] = s
	return s
}
