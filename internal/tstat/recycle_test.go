package tstat

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"satwatch/internal/packet"
)

// recycleKinds are the flows TestRecycledStateMatchesFreshTracker plays.
const (
	kindHTTPS    = iota // TLS handshake and data; FIN/FIN a few seconds later
	kindHTTP            // request and ACK; FIN/FIN later
	kindQUIC            // Initial, server flight, completion, bursts
	kindDNS             // answered query, unanswered query, unsolicited response
	kindRST             // opaque first payload, then a later RST
	kindSplitUDP        // datagrams, silence past the UDP idle timeout, more
	kindOpenTCP         // never closed: idles out, or the final Flush takes it
	numKinds
)

// recyclePart is a run of a flow's events, observed once the driver's
// clock reaches at.
type recyclePart struct {
	at     time.Duration
	tuples []packet.FiveTuple
	events []SegmentEvent
}

// recycleFlow is one played flow: its parts, the advance after which each
// was observed, and the advance at which its last record came out
// (flushed: the final Flush).
type recycleFlow struct {
	client   netip.Addr
	parts    []recyclePart
	playedAt []int
	lastOut  int
	flushed  bool
	flows    []FlowRecord
	first10  [][]time.Duration // each record's First10 as emitted
	dns      []DNSRecord
}

// recyclePayloads are the wire payloads the flows carry, built once.
type recyclePayloads struct {
	hellos, requests, initials [][]byte
	serverFlight, clientFinal  []byte
	queries, answers           [8][]byte // by DNS ID
	opaque                     []byte
}

func newRecyclePayloads(t *testing.T) *recyclePayloads {
	p := &recyclePayloads{
		serverFlight: tlsServerHelloBytes(t),
		clientFinal:  tlsClientKeyExchangeBytes(t),
		opaque:       []byte{0x16, 0x99, 0x01},
	}
	for _, name := range []string{"www.example.org", "e1.whatsapp.net", "video-cdn.sky.com"} {
		p.hellos = append(p.hellos, tlsClientHelloBytes(t, name))
		req, _ := (&packet.HTTPRequest{Headers: []packet.HTTPHeader{{Name: "Host", Value: name}}}).AppendBinary(nil)
		p.requests = append(p.requests, req)
		hs, err := (&packet.ClientHello{Version: packet.TLSVersion12, ServerName: name}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		ini, err := (&packet.QUICInitial{Version: packet.QUICVersion1, DCID: []byte{1, 2, 3, 4}, CryptoPayload: hs}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		p.initials = append(p.initials, ini)
	}
	for id := range p.queries {
		p.queries[id] = dnsBytes(t, uint16(id), false)
		p.answers[id] = dnsBytes(t, uint16(id), true)
	}
	return p
}

// newRecycleFlow builds flow i of the given kind starting at start: every
// flow has its own client address, so its records are told apart by it.
func newRecycleFlow(i, kind int, start time.Duration, p *recyclePayloads, rng *rand.Rand) *recycleFlow {
	client := packet.Endpoint{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), Port: 40000}
	server := packet.Endpoint{Addr: netip.AddrFrom4([4]byte{93, 184, 0, byte(rng.IntN(4))}), Port: 443}
	fl := &recycleFlow{client: client.Addr}
	ms := time.Millisecond
	at := start
	var part *recyclePart
	begin := func(t time.Duration) {
		fl.parts = append(fl.parts, recyclePart{at: t})
		part = &fl.parts[len(fl.parts)-1]
		at = t
	}
	add := func(tuple packet.FiveTuple, gap time.Duration, ev SegmentEvent) {
		at += gap
		ev.T, ev.Packets = at, max(ev.Packets, 1)
		part.tuples = append(part.tuples, tuple)
		part.events = append(part.events, ev)
	}
	c2s, s2c := tcpTuple(client, server), tcpTuple(server, client)
	handshake := func() {
		add(c2s, 0, SegmentEvent{Flags: packet.FlagSYN})
		add(s2c, 20*ms, SegmentEvent{Flags: packet.FlagSYN | packet.FlagACK, Ack: 1})
		add(c2s, ms, SegmentEvent{Flags: packet.FlagACK, Ack: 1})
	}
	data := func(seq uint32, n int) {
		for k := 0; k < n; k++ {
			add(s2c, 5*ms, SegmentEvent{Flags: packet.FlagACK, Seq: 1, Ack: seq, Payload: 1460, Packets: 1 + rng.IntN(3)})
			add(c2s, ms, SegmentEvent{Flags: packet.FlagACK, Seq: seq, Ack: 1461})
		}
	}
	teardown := func(seq uint32) {
		begin(at + time.Duration(1+rng.IntN(20))*time.Second)
		add(c2s, 0, SegmentEvent{Flags: packet.FlagFIN | packet.FlagACK, Seq: seq})
		add(s2c, 20*ms, SegmentEvent{Flags: packet.FlagFIN | packet.FlagACK, Ack: seq + 1})
	}
	begin(start)
	switch kind {
	case kindHTTPS:
		ch := p.hellos[rng.IntN(len(p.hellos))]
		handshake()
		seq := uint32(1)
		if rng.IntN(3) == 0 { // a ClientHello split over two segments
			add(c2s, ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: 20, AppData: ch[:20]})
			add(c2s, ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: seq + 20, Payload: len(ch) - 20, AppData: ch[20:]})
		} else {
			add(c2s, ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(ch), AppData: ch})
		}
		seq += uint32(len(ch))
		add(s2c, 20*ms, SegmentEvent{Flags: packet.FlagACK, Ack: seq})
		add(s2c, ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: len(p.serverFlight), AppData: p.serverFlight, Packets: 3})
		add(c2s, time.Duration(500+rng.IntN(200))*ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: seq, Payload: len(p.clientFinal), AppData: p.clientFinal})
		seq += uint32(len(p.clientFinal))
		data(seq, rng.IntN(6))
		teardown(seq)
	case kindHTTP:
		req := p.requests[rng.IntN(len(p.requests))]
		server.Port = 80
		c2s, s2c = tcpTuple(client, server), tcpTuple(server, client)
		handshake()
		add(c2s, ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: len(req), AppData: req})
		add(s2c, 20*ms, SegmentEvent{Flags: packet.FlagACK, Ack: 1 + uint32(len(req))})
		data(1+uint32(len(req)), rng.IntN(4))
		teardown(1 + uint32(len(req)))
	case kindQUIC:
		u, d := udpTuple(client, server), udpTuple(server, client)
		add(u, 0, SegmentEvent{Payload: 1252, AppData: p.initials[rng.IntN(len(p.initials))]})
		add(d, 20*ms, SegmentEvent{Payload: 3600, Packets: 3})
		add(u, 600*ms, SegmentEvent{Payload: 120})
		for k := rng.IntN(4); k > 0; k-- {
			add(d, 50*ms, SegmentEvent{Payload: 12000, Packets: 10})
		}
	case kindDNS:
		resolver := packet.Endpoint{Addr: netip.AddrFrom4([4]byte{8, 8, 8, byte(rng.IntN(2))}), Port: 53}
		q, r := udpTuple(client, resolver), udpTuple(resolver, client)
		ids := rng.Perm(len(p.queries))
		answered, unanswered, unsolicited := ids[0], ids[1], ids[2]
		add(q, 0, SegmentEvent{Payload: len(p.queries[answered]), AppData: p.queries[answered]})
		add(q, ms, SegmentEvent{Payload: len(p.queries[unanswered]), AppData: p.queries[unanswered]})
		add(r, 30*ms, SegmentEvent{Payload: len(p.answers[answered]), AppData: p.answers[answered]})
		add(r, ms, SegmentEvent{Payload: len(p.answers[unsolicited]), AppData: p.answers[unsolicited]})
	case kindRST:
		server.Port = 1194
		c2s, s2c = tcpTuple(client, server), tcpTuple(server, client)
		handshake()
		add(c2s, ms, SegmentEvent{Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: 300, AppData: p.opaque})
		add(s2c, 20*ms, SegmentEvent{Flags: packet.FlagACK, Ack: 301})
		begin(at + time.Duration(1+rng.IntN(30))*time.Second)
		add(s2c, 0, SegmentEvent{Flags: packet.FlagRST})
	case kindSplitUDP:
		server.Port = 3478
		u, d := udpTuple(client, server), udpTuple(server, client)
		add(u, 0, SegmentEvent{Payload: 64, AppData: p.opaque})
		add(d, 20*ms, SegmentEvent{Payload: 900, Packets: 2})
		// The server speaks again after the idle timeout: the probe has
		// logged the first flow and opens a second, server-initiated one.
		begin(at + udpIdle + time.Duration(2+rng.IntN(10))*time.Second)
		add(d, 0, SegmentEvent{Payload: 300})
		add(u, 20*ms, SegmentEvent{Payload: 64})
	case kindOpenTCP:
		server.Port = 22
		c2s, s2c = tcpTuple(client, server), tcpTuple(server, client)
		handshake()
		data(1, 1+rng.IntN(3))
	}
	fl.playedAt = make([]int, len(fl.parts))
	return fl
}

// TestRecycledStateMatchesFreshTracker drives one long-lived tracker, whose
// flow states go round its free list, through thousands of flows of every
// kind, with teardowns and a second burst arriving on later sweeps and a
// final Flush. Each flow's records must equal the records a fresh tracker
// emits for that flow alone under the same AdvanceTime calls; the records
// must keep their First10 through everything played after them, and
// through appends to their neighbours'; and no deadline-heap entry filed
// in a state's earlier life may match it.
func TestRecycledStateMatchesFreshTracker(t *testing.T) {
	const nFlows = 12_000
	rng := rand.New(rand.NewPCG(38, 1))
	p := newRecyclePayloads(t)

	var flows []*recycleFlow
	byClient := map[netip.Addr]*recycleFlow{}
	var advances []time.Duration // the driver's AdvanceTime calls, in order
	var sweeping []int           // indices of the advances that swept
	cur := -1                    // index of the latest advance
	long := NewTracker(Config{
		OnFlow: func(r FlowRecord) {
			fl := byClient[r.Client]
			if fl == nil { // the second flow of a split UDP exchange
				fl = byClient[r.Server]
			}
			fl.flows = append(fl.flows, r)
			fl.first10 = append(fl.first10, slices.Clone(r.First10))
			fl.lastOut = cur
		},
		OnDNS: func(r DNSRecord) {
			fl := byClient[r.Client]
			fl.dns = append(fl.dns, r)
			fl.lastOut = cur
		},
	})
	checkHeap := func() {
		for _, e := range long.due {
			if e.gen != e.f.gen {
				continue
			}
			if long.flows[e.f.key] != e.f {
				t.Fatalf("advance %d: a heap entry due at %v matches a state that is not in the table", cur, e.at)
			}
			if e.at != e.f.due {
				t.Fatalf("advance %d: a superseded heap entry due at %v matches a flow filed for %v", cur, e.at, e.f.due)
			}
		}
	}
	advance := func(now time.Duration) {
		swept := long.lastSweep
		advances = append(advances, now)
		cur++
		long.AdvanceTime(now)
		if long.lastSweep != swept {
			sweeping = append(sweeping, cur)
		}
		checkHeap()
	}
	// pending holds the later parts still to be observed.
	type pendingPart struct {
		fl *recycleFlow
		k  int
	}
	var pending []pendingPart
	play := func(fl *recycleFlow, k int) {
		part := &fl.parts[k]
		fl.playedAt[k] = cur
		for j := range part.events {
			long.Observe(part.tuples[j], part.events[j])
		}
	}
	playDue := func(now time.Duration) {
		kept := pending[:0]
		for _, pp := range pending {
			if pp.fl.parts[pp.k].at <= now {
				play(pp.fl, pp.k)
			} else {
				kept = append(kept, pp)
			}
		}
		pending = kept
	}

	now := time.Second
	for i := 0; i < nFlows; i++ {
		switch rng.IntN(4) {
		case 0: // several flows start within one sweep interval
		case 1:
			now += time.Duration(rng.IntN(1000)) * time.Millisecond
		default:
			now += time.Duration(rng.IntN(3000)) * time.Millisecond
		}
		advance(now)
		playDue(now)
		fl := newRecycleFlow(i, i%numKinds, now+time.Duration(rng.IntN(500))*time.Millisecond, p, rng)
		flows = append(flows, fl)
		byClient[fl.client] = fl
		play(fl, 0)
		for k := 1; k < len(fl.parts); k++ {
			pending = append(pending, pendingPart{fl, k})
		}
	}
	for len(pending) > 0 {
		next := pending[0].fl.parts[pending[0].k].at
		for _, pp := range pending {
			next = min(next, pp.fl.parts[pp.k].at)
		}
		now = max(now+time.Second, next)
		advance(now)
		playDue(now)
	}
	// UDP flows idle out; open TCP flows are left for the final Flush.
	advance(now + 2*udpIdle)
	cur = len(advances)
	long.Flush()
	if states := len(long.free); states > nFlows/10 {
		t.Fatalf("%d flows took %d flow states: the tracker is not recycling them", nFlows, states)
	}

	var flushed, split int
	for i, fl := range flows {
		if len(fl.flows) > 1 {
			split++
		}
		if fl.lastOut == len(advances) {
			flushed++
			fl.flushed, fl.lastOut = true, len(advances)-1
		}
		want := &recycleFlow{}
		fresh := NewTracker(Config{
			OnFlow: func(r FlowRecord) { want.flows = append(want.flows, r) },
			OnDNS:  func(r DNSRecord) { want.dns = append(want.dns, r) },
		})
		// Start at the latest sweep before the flow's first part, so the
		// fresh tracker's sweeps fall where the long-lived one's did.
		a := sweeping[sort.SearchInts(sweeping, fl.playedAt[0]+1)-1]
		k := 0
		for ; a <= fl.lastOut; a++ {
			fresh.AdvanceTime(advances[a])
			for ; k < len(fl.parts) && fl.playedAt[k] == a; k++ {
				part := &fl.parts[k]
				for j := range part.events {
					fresh.Observe(part.tuples[j], part.events[j])
				}
			}
		}
		if k != len(fl.parts) {
			t.Fatalf("flow %d: %d of %d parts played before its last record", i, k, len(fl.parts))
		}
		if fl.flushed {
			fresh.Flush()
		}
		if len(fl.flows) != len(want.flows) || len(fl.dns) != len(want.dns) {
			t.Fatalf("flow %d (kind %d): %d flow and %d DNS records, a fresh tracker emits %d and %d",
				i, i%numKinds, len(fl.flows), len(fl.dns), len(want.flows), len(want.dns))
		}
		for j := range want.flows {
			if CompareFlows(&fl.flows[j], &want.flows[j]) != 0 || !slices.Equal(fl.first10[j], want.flows[j].First10) {
				t.Fatalf("flow %d (kind %d) record %d:\n got %+v\nwant %+v", i, i%numKinds, j, fl.flows[j], want.flows[j])
			}
		}
		for j := range want.dns {
			if fl.dns[j] != want.dns[j] {
				t.Fatalf("flow %d DNS record %d:\n got %+v\nwant %+v", i, j, fl.dns[j], want.dns[j])
			}
		}
	}

	if flushed == 0 || split == 0 {
		t.Fatalf("%d flows left for the final Flush, %d split by a sweep: want some of each", flushed, split)
	}

	// Every record still holds the First10 it was emitted with, the
	// earliest after 10 000 later flows, and still does once a consumer
	// appended to every record's slice.
	checkFirst10 := func(when string) {
		for i, fl := range flows {
			for j := range fl.flows {
				if !slices.Equal(fl.flows[j].First10, fl.first10[j]) {
					t.Fatalf("%s: flow %d record %d First10 %v, emitted as %v", when, i, j, fl.flows[j].First10, fl.first10[j])
				}
			}
		}
	}
	checkFirst10("after the run")
	for _, fl := range flows {
		for j := range fl.flows {
			_ = append(fl.flows[j].First10, -1)
		}
	}
	checkFirst10("after appends")
}
