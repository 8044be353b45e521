package tstat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// refFlowRow is the format string appendFlowRow replaced, kept as the
// definition of the flow log line.
func refFlowRow(r *FlowRecord) string {
	f10 := make([]string, len(r.First10))
	for j, t := range r.First10 {
		f10[j] = strconv.FormatInt(t.Microseconds(), 10)
	}
	return fmt.Sprintf("%s\t%d\t%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
		r.Client, r.CPort, r.Server, r.SPort, r.Proto, r.Domain,
		r.Start.Microseconds(), r.End.Microseconds(),
		r.BytesUp, r.BytesDown, r.PktsUp, r.PktsDown,
		r.GroundRTT.Samples, r.GroundRTT.Min.Microseconds(), r.GroundRTT.Avg.Microseconds(),
		r.GroundRTT.Max.Microseconds(), r.GroundRTT.Std.Microseconds(),
		r.SatRTT.Microseconds(), strings.Join(f10, ","))
}

// refDNSRow is the format string appendDNSRow replaced.
func refDNSRow(r *DNSRecord) string {
	ans := ""
	if r.Answer.IsValid() {
		ans = r.Answer.String()
	}
	return fmt.Sprintf("%s\t%s\t%s\t%d\t%s\t%d\t%d\n",
		r.Client, r.Resolver, r.Query, r.RCode, ans,
		r.T.Microseconds(), r.ResponseTime.Microseconds())
}

func TestAppendFlowRowMatchesFormat(t *testing.T) {
	edit := func(f func(*FlowRecord)) FlowRecord {
		r := sampleFlow()
		f(&r)
		return r
	}
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i) * 1234567 * time.Microsecond
	}
	for name, r := range map[string]FlowRecord{
		"sample":      sampleFlow(),
		"zero record": {},
		"zero addrs":  edit(func(r *FlowRecord) { r.Client, r.Server = netip.Addr{}, netip.Addr{} }),
		"v4 in v6":    edit(func(r *FlowRecord) { r.Client = netip.MustParseAddr("::ffff:10.1.2.3") }),
		"zoned v6":    edit(func(r *FlowRecord) { r.Server = netip.MustParseAddr("fe80::1%eth0") }),
		"v6":          edit(func(r *FlowRecord) { r.Server = netip.MustParseAddr("2001:db8::1") }),
		"Protocol(9)": edit(func(r *FlowRecord) { r.Proto = 9 }),
		"no domain":   edit(func(r *FlowRecord) { r.Domain = "" }),
		"no first10":  edit(func(r *FlowRecord) { r.First10 = nil }),
		"one first10": edit(func(r *FlowRecord) { r.First10 = ten[:1] }),
		"ten first10": edit(func(r *FlowRecord) { r.First10 = ten }),
		"negative and sub-microsecond": edit(func(r *FlowRecord) {
			r.Start, r.End, r.SatRTT = -5*time.Second, 999*time.Nanosecond, -999*time.Nanosecond
			r.GroundRTT = RTTStats{Samples: -1, Min: math.MinInt64, Max: math.MaxInt64, Avg: -1, Std: 1}
			r.First10 = []time.Duration{-1500 * time.Nanosecond, math.MinInt64}
		}),
		"extreme counters": edit(func(r *FlowRecord) {
			r.BytesUp, r.BytesDown, r.PktsUp, r.PktsDown = math.MinInt64, math.MaxInt64, -1, 0
			r.CPort, r.SPort = 0, math.MaxUint16
		}),
	} {
		if got, want := string(appendFlowRow(nil, &r)), refFlowRow(&r); got != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

func TestAppendDNSRowMatchesFormat(t *testing.T) {
	a, b := sampleFlow().Client, sampleFlow().Server
	for name, r := range map[string]DNSRecord{
		"answered":       {Client: a, Resolver: b, Query: "a.example", Answer: b, T: time.Hour, ResponseTime: 22 * time.Millisecond},
		"zero record":    {},
		"invalid answer": {Client: a, Resolver: b, Query: "b.example", RCode: 3},
		"v6 and zone":    {Client: netip.MustParseAddr("fe80::1%eth0"), Resolver: netip.MustParseAddr("::ffff:8.8.8.8"), Answer: netip.MustParseAddr("2001:db8::1"), RCode: 255},
		"negative times": {Client: a, Resolver: b, T: math.MinInt64, ResponseTime: -999 * time.Nanosecond},
	} {
		if got, want := string(appendDNSRow(nil, &r)), refDNSRow(&r); got != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

// fuzzAddr turns fuzzer bytes into an address: 4 bytes an IPv4, 16 an
// IPv6 (IPv4-in-6 included) carrying the zone, anything else the zero Addr.
func fuzzAddr(b []byte, zone string) netip.Addr {
	a, _ := netip.AddrFromSlice(b)
	if a.Is6() {
		a = a.WithZone(zone)
	}
	return a
}

// FuzzAppendFlowRow: for arbitrary field values the encoder writes the
// bytes the format string did.
func FuzzAppendFlowRow(f *testing.F) {
	f.Add([]byte{10, 1, 2, 3}, []byte{151, 101, 1, 1}, "", uint16(40000), uint16(443), uint8(1), "e1.whatsapp.net",
		int64(90e9), int64(1234), int64(5), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{}, make([]byte, 16), "eth0", uint16(0), uint16(65535), uint8(9), "",
		int64(math.MinInt64), int64(math.MaxInt64), int64(-1), []byte{})
	f.Add(netip.MustParseAddr("::ffff:1.2.3.4").AsSlice(), []byte{1}, "z", uint16(1), uint16(2), uint8(7), "tab\tin\nname",
		int64(-999), int64(999), int64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, client, server []byte, zone string, cport, sport uint16, proto uint8, domain string,
		x, y, z int64, first []byte) {
		r := FlowRecord{
			Client: fuzzAddr(client, zone), Server: fuzzAddr(server, zone), CPort: cport, SPort: sport,
			Proto: Protocol(proto), Domain: domain,
			Start: time.Duration(x), End: time.Duration(y), BytesUp: z, BytesDown: x ^ y, PktsUp: y ^ z, PktsDown: -x,
			GroundRTT: RTTStats{Samples: int(z), Min: time.Duration(-y), Avg: time.Duration(x + y),
				Max: time.Duration(y - z), Std: time.Duration(x ^ z)},
			SatRTT: time.Duration(z - x),
		}
		for ; len(first) >= 8; first = first[8:] {
			r.First10 = append(r.First10, time.Duration(binary.BigEndian.Uint64(first)))
		}
		if got, want := string(appendFlowRow(nil, &r)), refFlowRow(&r); got != want {
			t.Fatalf("%+v:\n got %q\nwant %q", r, got, want)
		}
	})
}

// FuzzAppendDNSRow is FuzzAppendFlowRow for the DNS log.
func FuzzAppendDNSRow(f *testing.F) {
	f.Add([]byte{10, 5, 5, 5}, []byte{8, 8, 8, 8}, []byte{142, 250, 1, 2}, "", "play.googleapis.com", uint8(0), int64(3600e9), int64(22e6))
	f.Add([]byte{}, make([]byte, 16), []byte{}, "eth0", "", uint8(255), int64(math.MinInt64), int64(-999))
	f.Fuzz(func(t *testing.T, client, resolver, answer []byte, zone, query string, rcode uint8, at, resp int64) {
		r := DNSRecord{Client: fuzzAddr(client, zone), Resolver: fuzzAddr(resolver, zone), Answer: fuzzAddr(answer, zone),
			Query: query, RCode: rcode, T: time.Duration(at), ResponseTime: time.Duration(resp)}
		if got, want := string(appendDNSRow(nil, &r)), refDNSRow(&r); got != want {
			t.Fatalf("%+v:\n got %q\nwant %q", r, got, want)
		}
	})
}

// manyFlows returns n distinct-looking records over the given number of
// domains, ten First10 timings each.
func manyFlows(n, domains int) []FlowRecord {
	recs := make([]FlowRecord, n)
	for i := range recs {
		r := sampleFlow()
		r.CPort = uint16(i)
		r.Domain = fmt.Sprintf("host%d.cdn%d.example.net", i%domains, i%domains)
		r.Start += time.Duration(i) * time.Millisecond
		r.First10 = make([]time.Duration, 10)
		for j := range r.First10 {
			r.First10[j] = r.Start + time.Duration(j)*time.Millisecond
		}
		recs[i] = r
	}
	return recs
}

// TestWriteAllocationBudget: encoding costs a fixed handful of objects per
// call (the row buffer), not some per row.
func TestWriteAllocationBudget(t *testing.T) {
	flows := manyFlows(1000, 20)
	dns := make([]DNSRecord, 1000)
	for i := range dns {
		dns[i] = DNSRecord{Client: flows[i].Client, Resolver: flows[i].Server, Query: flows[i].Domain,
			Answer: flows[i].Server, T: flows[i].Start, ResponseTime: 22 * time.Millisecond}
	}
	if n := testing.AllocsPerRun(10, func() { WriteFlows(io.Discard, flows) }); n > 4 {
		t.Errorf("WriteFlows of 1000 rows allocates %.0f objects, budget 4", n)
	}
	if n := testing.AllocsPerRun(10, func() { WriteDNS(io.Discard, dns) }); n > 4 {
		t.Errorf("WriteDNS of 1000 rows allocates %.0f objects, budget 4", n)
	}
}

// TestReadDoesNotPinLines: a decoded record's Domain (a DNS record's
// Query) is a field of its line; held as a substring it kept the whole
// ~240-byte line alive beside the 192-byte record.
func TestReadDoesNotPinLines(t *testing.T) {
	const rows = 10000
	var fb, db bytes.Buffer
	in := manyFlows(rows, 20)
	if err := WriteFlows(&fb, in); err != nil {
		t.Fatal(err)
	}
	dnsIn := make([]DNSRecord, rows)
	for i := range dnsIn {
		dnsIn[i] = DNSRecord{Client: in[i].Client, Resolver: in[i].Server, Query: in[i].Domain, T: in[i].Start}
	}
	if err := WriteDNS(&db, dnsIn); err != nil {
		t.Fatal(err)
	}
	in, dnsIn = nil, nil

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	flows, err := ReadFlows(&fb)
	if err != nil {
		t.Fatal(err)
	}
	retained := heap() - before
	// cap, not len: append's headroom is the slice's, not the lines'.
	budget := uint64(cap(flows))*uint64(unsafe.Sizeof(FlowRecord{})) + rows*10*8
	if float64(retained) > 1.3*float64(budget) {
		t.Errorf("%d flow records retain %d bytes, over 1.3x their own %d", len(flows), retained, budget)
	}

	before = heap()
	dns, err := ReadDNS(&db)
	if err != nil {
		t.Fatal(err)
	}
	retained = heap() - before
	budget = uint64(cap(dns)) * uint64(unsafe.Sizeof(DNSRecord{}))
	if float64(retained) > 1.3*float64(budget) {
		t.Errorf("%d DNS records retain %d bytes, over 1.3x their own %d", len(dns), retained, budget)
	}
	// The logs too: text freed between two readings would offset text pinned.
	runtime.KeepAlive(&fb)
	runtime.KeepAlive(&db)
	runtime.KeepAlive(flows)
	runtime.KeepAlive(dns)
}
