package netsim

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"satwatch/internal/packet"
	"satwatch/internal/tstat"
)

// mapPorts is the port allocator as it was before the dense table: one map
// per customer from issued port to busy-until, an entry deleted when its
// port is reissued and the map cleared when its customer retires. It is
// the reference the table is held to; the one-day goldens never wrap a
// customer's ports, so they cannot tell a wrong busy check.
type mapPorts struct {
	ports map[int]*mapAlloc
	spare *mapAlloc
}

type mapAlloc struct {
	next uint16
	busy map[uint16]time.Duration
}

func (s *mapPorts) nextPort(custID int, start time.Duration) uint16 {
	pa := s.ports[custID]
	if pa == nil {
		pa, s.spare = s.spare, nil
		if pa == nil {
			pa = &mapAlloc{next: 1024, busy: map[uint16]time.Duration{}}
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
	return pa.next
}

func (s *mapPorts) retirePorts(custID int) {
	if pa := s.ports[custID]; pa != nil {
		delete(s.ports, custID)
		pa.next = 1024
		clear(pa.busy)
		s.spare = pa
	}
}

func (s *mapPorts) holdPort(custID int, p uint16, end time.Duration) {
	if pa := s.ports[custID]; pa != nil && end > pa.busy[p] {
		pa.busy[p] = end
	}
}

// portPair drives the synthesizer's table and the map reference through
// the same calls and fails on the first port or hold they disagree on.
type portPair struct {
	t   testing.TB
	syn *synthesizer
	ref *mapPorts
}

func newPortPair(t testing.TB) *portPair {
	return &portPair{t: t, syn: &synthesizer{ports: map[int]*portAlloc{}}, ref: &mapPorts{ports: map[int]*mapAlloc{}}}
}

func (pp *portPair) next(cust int, start time.Duration) uint16 {
	pp.t.Helper()
	got, want := pp.syn.nextPort(cust, start), pp.ref.nextPort(cust, start)
	if got != want {
		pp.t.Fatalf("customer %d: nextPort(%v) = %d, reference %d", cust, start, got, want)
	}
	pp.sameHold(cust, got)
	return got
}

func (pp *portPair) hold(cust int, p uint16, end time.Duration) {
	pp.t.Helper()
	pp.syn.holdPort(cust, p, end)
	pp.ref.holdPort(cust, p, end)
	pp.sameHold(cust, p)
}

func (pp *portPair) retire(cust int) {
	pp.t.Helper()
	pp.syn.retirePorts(cust)
	pp.ref.retirePorts(cust)
	if (pp.syn.ports[cust] == nil) != (pp.ref.ports[cust] == nil) {
		pp.t.Fatalf("customer %d: retired in one allocator only", cust)
	}
}

// jump moves both cursors to p, as issuing every port before it would.
func (pp *portPair) jump(cust int, p uint16) {
	if pa, ra := pp.syn.ports[cust], pp.ref.ports[cust]; pa != nil && ra != nil {
		pa.next, ra.next = p, p
	}
}

// held reads port p's busy-until from the table, zero when free.
func held(pa *portAlloc, p uint16) time.Duration {
	if pa == nil || p < 1024 || int(p-1024) >= len(pa.busy) {
		return 0
	}
	return pa.busy[p-1024]
}

func (pp *portPair) sameHold(cust int, p uint16) {
	pp.t.Helper()
	var want time.Duration
	if ra := pp.ref.ports[cust]; ra != nil {
		want = ra.busy[p]
	}
	if got := held(pp.syn.ports[cust], p); got != want {
		pp.t.Fatalf("customer %d: port %d held until %v, reference %v", cust, p, got, want)
	}
}

// sameTables compares every port of every customer: the same ports held,
// until the same time, and the same cursor.
func (pp *portPair) sameTables() {
	pp.t.Helper()
	for cust, ra := range pp.ref.ports {
		pa := pp.syn.ports[cust]
		if pa == nil || pa.next != ra.next {
			pp.t.Fatalf("customer %d: allocator %+v, reference cursor %d", cust, pa, ra.next)
		}
		for p, until := range ra.busy {
			if got := held(pa, p); got != until {
				pp.t.Fatalf("customer %d: port %d held until %v, reference %v", cust, p, got, until)
			}
		}
		for i, until := range pa.busy {
			if p := uint16(1024 + i); until != 0 && ra.busy[p] != until {
				pp.t.Fatalf("customer %d: port %d held until %v, reference %v", cust, p, until, ra.busy[p])
			}
		}
	}
	if len(pp.syn.ports) != len(pp.ref.ports) {
		pp.t.Fatalf("%d live allocators, reference %d", len(pp.syn.ports), len(pp.ref.ports))
	}
}

// TestPortTableMatchesMapReference drives the dense table and the map
// allocator it replaced through each customer's ports wrapping twice, with
// intents arriving faster than portReuseGuard so a wrap meets held ports:
// DNS-style starts before the clock (dnsTransaction's tq), holds that land
// after newer ports were issued, holds ending at or before zero, a retired
// customer's allocator serving the next one, and every port busy.
func TestPortTableMatchesMapReference(t *testing.T) {
	pp := newPortPair(t)
	r := rand.New(rand.NewPCG(50, 1))
	const customers = 3
	var clock [customers]time.Duration
	var issued [customers][]uint16
	var prev [customers]uint16
	var wraps [customers]int
	for step := 0; wraps[0] < 2 || wraps[1] < 2 || wraps[2] < 2; step++ {
		c := r.IntN(customers)
		clock[c] += time.Duration(r.IntN(4)) * time.Millisecond
		if r.IntN(20_000) == 0 { // the customer goes quiet for a while
			clock[c] += time.Duration(r.IntN(10)) * time.Minute
		}
		start := clock[c]
		if r.IntN(3) == 0 { // a DNS query leaves before the intent's start
			start = max(0, start-time.Duration(r.IntN(500))*time.Millisecond)
		}
		p := pp.next(c, start)
		if p < prev[c] {
			wraps[c]++
		}
		prev[c] = p
		issued[c] = append(issued[c], p)
		switch k := r.IntN(10); {
		case k < 6: // the flow ends shortly after it starts
			pp.hold(c, p, start+time.Duration(r.IntN(2000))*time.Millisecond)
		case k < 8: // a long flow, still busy when the cursor comes round
			pp.hold(c, p, start+time.Duration(r.IntN(30))*time.Minute)
		case k < 9: // an older flow's hold lands late, or ends at or before 0
			q := issued[c][r.IntN(len(issued[c]))]
			pp.hold(c, q, time.Duration(r.IntN(3)-2)*clock[c]/2+time.Duration(r.IntN(5))*time.Minute)
		}
		if len(issued[c]) > 4096 {
			issued[c] = issued[c][2048:]
		}
		if step%50_000 == 49_999 {
			pp.sameTables()
		}
	}
	pp.sameTables()

	// Retire and reuse: the next customer starts from the retired table.
	pp.retire(1)
	for i := 0; i < 1000; i++ {
		pp.hold(3, pp.next(3, 0), time.Hour)
	}
	pp.hold(3, 40_000, time.Hour) // grows the table past the cursor
	pp.jump(3, 39_990)
	for i := 0; i < 30; i++ {
		pp.next(3, time.Minute)
	}
	pp.sameTables()

	// Every port busy: the allocator falls back to its cursor.
	for p := 1024; p <= 65535; p++ {
		pp.hold(0, uint16(p), clock[0]+time.Hour)
	}
	for i := 0; i < 3; i++ {
		pp.next(0, clock[0])
	}
	pp.sameTables()
}

// FuzzPortAlloc decodes bytes into nextPort, holdPort and retirePorts
// calls over three customers, with cursor jumps that force wraps, and
// holds the dense table to the map reference on every port issued and
// every hold.
func FuzzPortAlloc(f *testing.F) {
	// Three ports held for 17 minutes, the cursor jumped to 65533, and a
	// wrap that must skip them.
	f.Add([]byte{0, 0, 1, 2, 0, 200, 0, 0, 1, 2, 0, 200, 0, 0, 1, 2, 0, 200,
		4, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1})
	// A port held for 45 s, the cursor wrapped, and the port reissued
	// 8.5 minutes later.
	f.Add([]byte{0, 0, 1, 2, 0, 70, 4, 0, 0, 0, 0, 1, 0, 0, 255})
	// A retired customer's allocator serving the next one, a hold past the
	// cursor, and a hold ending before zero.
	f.Add([]byte{0, 0, 1, 2, 0, 255, 2, 0x83, 0, 3, 0, 0, 0x10, 0, 1, 0x12, 0x83, 0, 0x12, 0, 0,
		0x14, 0x7f, 0x00, 0x10, 0, 1, 0x10, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pp := newPortPair(t)
		var clock time.Duration
		var last [3]uint16
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			c := int(op>>4) % 3
			switch op % 5 {
			case 0, 1: // a port for an intent at or before the clock
				clock += time.Duration(b) * 2 * time.Second
				last[c] = pp.next(c, max(0, clock-time.Duration(a)*time.Second))
			case 2: // hold a recent port, or any port, until around the clock
				p := last[c]
				if a&0x80 != 0 {
					p = 1024 + uint16(int(a&0x7f)<<8|int(b))%64512
				}
				if p >= 1024 {
					pp.hold(c, p, clock+time.Duration(int(b)-64)*time.Minute/8)
				}
			case 3:
				pp.retire(c)
			case 4: // jump the cursor, most often to just before the wrap
				pp.jump(c, 65535-uint16(int(a)<<8|int(b))%64512)
			}
		}
		pp.sameTables()
	})
}

// TestPortReuseGuardOutlastsTracker pins portReuseGuard against the
// tracker it guards: a port whose last flow went quiet at last is reissued
// at last+portReuseGuard, and flow advances the tracker to that instant
// before the port is used. By then the tracker must have emitted an open
// TCP flow (no FIN: the longest timeout) and a UDP flow on that port,
// whenever the driver's previous sweep fell in the second before.
func TestPortReuseGuardOutlastsTracker(t *testing.T) {
	client := packet.Endpoint{Addr: netip.MustParseAddr("10.0.0.1"), Port: 1024}
	tcp := packet.FiveTuple{Proto: packet.ProtoTCP, Src: client,
		Dst: packet.Endpoint{Addr: netip.MustParseAddr("192.0.2.1"), Port: 443}}
	udp := packet.FiveTuple{Proto: packet.ProtoUDP, Src: client,
		Dst: packet.Endpoint{Addr: netip.MustParseAddr("192.0.2.2"), Port: 3478}}
	const last = 10*time.Minute + 250*time.Millisecond
	for _, before := range []time.Duration{0, time.Millisecond, 500 * time.Millisecond, 999 * time.Millisecond} {
		var emitted []tstat.FlowRecord
		tr := tstat.NewTracker(tstat.Config{OnFlow: func(r tstat.FlowRecord) { emitted = append(emitted, r) }})
		tr.Observe(tcp, tstat.SegmentEvent{T: last - 2*time.Second, Flags: packet.FlagSYN, Packets: 1})
		tr.Observe(tcp.Reverse(), tstat.SegmentEvent{T: last - time.Second, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1})
		tr.Observe(tcp, tstat.SegmentEvent{T: last, Flags: packet.FlagACK, Seq: 1, Ack: 1, Packets: 1})
		tr.Observe(udp, tstat.SegmentEvent{T: last, Payload: 20, WireLen: 48, Packets: 1})
		reuse := last + portReuseGuard
		tr.AdvanceTime(reuse - before) // the driver's previous sweep
		tr.AdvanceTime(reuse)          // flow, before the port is reissued
		if len(emitted) != 2 {
			t.Fatalf("previous sweep %v before reuse: %d of 2 flows on port %d emitted by %v (guard %v)",
				before, len(emitted), client.Port, reuse, portReuseGuard)
		}
	}
}
