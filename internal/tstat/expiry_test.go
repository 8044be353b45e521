package tstat

import (
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"satwatch/internal/packet"
)

// scanAdvanceTime is AdvanceTime with the sweep the deadline heap
// replaced: a scan of the whole flow table. It is the reference
// FuzzTrackerExpiry holds the heap to.
func scanAdvanceTime(t *Tracker, now time.Duration) {
	if now > t.now {
		t.now = now
	}
	if t.now-t.lastSweep < time.Second {
		return
	}
	t.lastSweep = t.now
	t.last = nil
	var batch []*flowState
	for key, f := range t.flows {
		idle := t.now - f.last
		var done bool
		switch {
		case f.isTCP && f.closed() && idle >= finLinger:
			done = true
		case f.isTCP && idle >= tcpIdle:
			done = true
		case !f.isTCP && idle >= udpIdle:
			done = true
		}
		if done {
			batch = append(batch, f)
			delete(t.flows, key)
		}
	}
	t.emitOrdered(batch)
}

// recorder is a tracker whose records stream into slices.
type recorder struct {
	tr    *Tracker
	flows []FlowRecord
	dns   []DNSRecord
}

func newRecorder() *recorder {
	r := &recorder{}
	r.tr = NewTracker(Config{
		OnFlow: func(f FlowRecord) { r.flows = append(r.flows, f) },
		OnDNS:  func(d DNSRecord) { r.dns = append(r.dns, d) },
	})
	return r
}

// expirySlots are the flows a fuzz input plays on: TCP toward three
// servers, plain UDP toward two, DNS toward two resolvers. A slot is
// reused once its flow is evicted, so tuples recur on fresh flows.
var expirySlots = func() []packet.FiveTuple {
	c := packet.Endpoint{Addr: netip.MustParseAddr("10.1.2.3"), Port: 40000}
	var out []packet.FiveTuple
	for i, port := range []uint16{443, 80, 1194, 3478, 443, 53, 53} {
		s := packet.Endpoint{Addr: netip.AddrFrom4([4]byte{93, 184, 0, byte(i)}), Port: port}
		proto := packet.ProtoUDP
		if i < 3 {
			proto = packet.ProtoTCP
		}
		out = append(out, packet.FiveTuple{Proto: proto, Src: c, Dst: s})
	}
	return out
}()

func dnsBytes(tb testing.TB, id uint16, response bool) []byte {
	q := []packet.DNSQuestion{{Name: "www.example.org", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}
	m := &packet.DNS{ID: id, RD: true, QR: response, Questions: q}
	if response {
		m.Answers = []packet.DNSRR{{Name: "www.example.org", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Addr: netip.MustParseAddr("93.184.216.34")}}
	}
	b, err := m.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzTrackerExpiry plays random flows (TCP with FIN/RST, UDP, DNS),
// events out of time order inside a flow and ahead of the clock, tuple
// reuse after eviction, clock advances and mid-stream flushes into a
// tracker and into a reference whose sweep scans the whole table. Both
// must emit the same records in the same order and agree on Active()
// after every step, and no flow left untouched since the last sweep may
// be due at it.
func FuzzTrackerExpiry(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0, 0, 0x06, 60, 1, 0, 0x08, 0x05, 0, 0, 0x10, 0x04, 5, 0, 0x06, 7, 1, 0})
	f.Add([]byte{0x18, 0, 0, 1, 0x06, 59, 1, 0, 0x06, 2, 1, 0, 0x18, 0, 0, 1, 0x06, 61, 1, 0})
	f.Add([]byte{0x28, 0x01, 0, 0, 0x29, 0x00, 0, 1, 0x28, 0x01, 0, 0, 0x06, 2, 3, 0, 0x07, 0, 0, 0})
	f.Add([]byte{0x00, 0x02, 0x40, 2, 0x01, 0x19, 0x80, 1, 0x06, 30, 2, 0, 0x06, 6, 2, 4, 0x00, 0x02, 0, 0})
	queries := [2][]byte{dnsBytes(f, 7, false), dnsBytes(f, 8, false)}
	responses := [2][]byte{dnsBytes(f, 7, true), dnsBytes(f, 8, true)}
	scales := [4]time.Duration{10 * time.Millisecond, time.Second, 10 * time.Second, time.Minute}
	f.Fuzz(func(t *testing.T, in []byte) {
		heap, ref := newRecorder(), newRecorder()
		var cur time.Duration
		var seenFlows, seenDNS int
		if len(in) > 4096 {
			in = in[:4096]
		}
		for step := 0; len(in) >= 4; step, in = step+1, in[4:] {
			op, b1, b2, b3 := in[0], in[1], in[2], in[3]
			switch {
			case op%8 == 6: // advance the driver's clock (or try to move it back)
				cur += time.Duration(b1) * scales[b2%4]
				at := cur
				if b2&4 != 0 {
					at -= time.Duration(b3) * time.Second
				}
				heap.tr.AdvanceTime(at)
				scanAdvanceTime(ref.tr, at)
			case op%8 == 7:
				heap.tr.Flush()
				ref.tr.Flush()
			default: // one event on a slot
				tuple := expirySlots[int(op>>3)%len(expirySlots)]
				if b1&1 != 0 {
					tuple = tuple.Reverse()
				}
				ev := SegmentEvent{T: max(0, cur+time.Duration(int8(b2))*scales[b3%4]), Payload: int(b3), Packets: 1 + int(b1>>6)}
				if tuple.Proto == packet.ProtoTCP {
					ev.Flags = packet.FlagACK
					if b1&2 != 0 {
						ev.Flags |= packet.FlagSYN
					}
					if b1&4 != 0 {
						ev.Flags |= packet.FlagFIN
					}
					if b1&0x18 == 0x18 {
						ev.Flags |= packet.FlagRST
					}
				} else if tuple.Src.Port == 53 || tuple.Dst.Port == 53 {
					if b1&1 == 0 {
						ev.AppData = queries[b3>>7]
					} else {
						ev.AppData = responses[b3>>7]
					}
				}
				heap.tr.Observe(tuple, ev)
				ref.tr.Observe(tuple, ev)
			}
			if heap.tr.Active() != ref.tr.Active() {
				t.Fatalf("step %d: %d active flows, reference %d", step, heap.tr.Active(), ref.tr.Active())
			}
			if !reflect.DeepEqual(heap.flows[seenFlows:], ref.flows[seenFlows:]) || !reflect.DeepEqual(heap.dns[seenDNS:], ref.dns[seenDNS:]) {
				t.Fatalf("step %d: emitted\n%+v\n%+v\nreference emitted\n%+v\n%+v", step, heap.flows[seenFlows:], heap.dns[seenDNS:], ref.flows[seenFlows:], ref.dns[seenDNS:])
			}
			seenFlows, seenDNS = len(ref.flows), len(ref.dns)
			for _, fs := range heap.tr.flows {
				if !fs.touched && heap.tr.deadline(fs) <= heap.tr.lastSweep {
					t.Fatalf("step %d: flow due at %v still active after the sweep at %v", step, heap.tr.deadline(fs), heap.tr.lastSweep)
				}
			}
		}
		heap.tr.Flush()
		ref.tr.Flush()
		if !reflect.DeepEqual(heap.flows, ref.flows) || !reflect.DeepEqual(heap.dns, ref.dns) {
			t.Fatal("final flush differs from the reference")
		}
	})
}

// mallocs counts the heap objects fn allocates.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSweepAllocatesNothing: on a warmed tracker, an AdvanceTime with
// nothing due allocates nothing, and neither does a sweep emitting 100
// flows through a no-op callback.
func TestSweepAllocatesNothing(t *testing.T) {
	tr := NewTracker(Config{OnFlow: func(FlowRecord) {}})
	var now time.Duration
	feed := func() {
		for i := 0; i < 100; i++ {
			c := packet.Endpoint{Addr: cust.Addr, Port: uint16(1024 + i)}
			tr.Observe(tcpTuple(c, srv), SegmentEvent{T: now, Flags: packet.FlagSYN, Packets: 1})
			tr.Observe(tcpTuple(srv, c), SegmentEvent{T: now + 20*time.Millisecond, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1})
		}
	}
	feed() // warm the touched list, the heap and the batch
	now += 10 * time.Minute
	tr.AdvanceTime(now)
	feed()
	for i := 0; i < 3; i++ {
		now += time.Second
		if n := mallocs(func() { tr.AdvanceTime(now) }); n != 0 {
			t.Errorf("AdvanceTime with nothing due allocated %d objects", n)
		}
	}
	if tr.Active() != 100 {
		t.Fatalf("%d active flows, want 100 (none due yet)", tr.Active())
	}
	now += 10 * time.Minute
	if n := mallocs(func() { tr.AdvanceTime(now) }); n != 0 {
		t.Errorf("sweep emitting 100 flows allocated %d objects", n)
	}
	if tr.Active() != 0 {
		t.Fatalf("%d flows survived their idle timeout", tr.Active())
	}
}
