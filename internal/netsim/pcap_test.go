package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/faults"
	"satwatch/internal/packet"
	"satwatch/internal/pcapio"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// replayPcap is satprobe's replay: every packet through a fresh tracker's
// FeedPacket, timed from 00:00 UTC of the first packet's day, which it
// returns with the count of TCP RST packets.
func replayPcap(t *testing.T, capture io.Reader) (flows []tstat.FlowRecord, dns []tstat.DNSRecord, epoch time.Time, rsts int) {
	t.Helper()
	rd, err := pcapio.NewReader(capture)
	if err != nil {
		t.Fatal(err)
	}
	tr := tstat.NewTracker(tstat.Config{})
	for {
		ts, raw, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if epoch.IsZero() {
			epoch = ts.UTC().Truncate(24 * time.Hour)
		}
		if err := tr.FeedPacket(ts.Sub(epoch), raw); err != nil {
			t.Fatal(err)
		}
		if p, _ := packet.Decode(raw); p.TCP != nil && p.TCP.Flags.Has(packet.FlagRST) {
			rsts++
		}
	}
	flows, dns = tr.Flush()
	return flows, dns, epoch, rsts
}

// flowKey is a record's canonical 5-tuple.
type flowKey struct {
	lo, hi packet.Endpoint
	tcp    bool
}

func keyOf(r *tstat.FlowRecord) flowKey {
	a := packet.Endpoint{Addr: r.Client, Port: r.CPort}
	b := packet.Endpoint{Addr: r.Server, Port: r.SPort}
	if b.Less(a) {
		a, b = b, a
	}
	tcp := r.Proto == tstat.ProtoHTTPS || r.Proto == tstat.ProtoHTTP || r.Proto == tstat.ProtoTCPOther
	return flowKey{a, b, tcp}
}

// pathDiff is the largest difference, over one sample, in each field the
// oracle does not hold exact (DESIGN.md, "Packet path vs in-process path").
type pathDiff struct {
	splits    int           // extra packet-path records (idle-timeout splits)
	end       time.Duration // |End| difference
	first10   int           // records whose First10 differ
	rttN      int           // |GroundRTT.Samples| difference
	rttStats  time.Duration // |GroundRTT Min, Avg, Max or Std| difference
	perRecord int           // records whose own byte or packet counts differ
}

func absDur(d time.Duration) time.Duration { return max(d, -d) }

// comparePaths holds the packet path's records for the sampled flows
// against the run's own rows and returns the differences it allows.
func comparePaths(t *testing.T, out *Output, sampled int, flows []tstat.FlowRecord, dns []tstat.DNSRecord) pathDiff {
	t.Helper()
	run := map[flowKey][]*tstat.FlowRecord{}
	for i := range out.Flows {
		k := keyOf(&out.Flows[i])
		run[k] = append(run[k], &out.Flows[i])
	}
	pkt := map[flowKey][]*tstat.FlowRecord{}
	var order []flowKey
	for i := range flows {
		k := keyOf(&flows[i])
		if pkt[k] == nil {
			order = append(order, k)
		}
		pkt[k] = append(pkt[k], &flows[i])
	}

	var d pathDiff
	apps, answered := 0, 0
	for _, k := range order {
		want := run[k]
		if len(want) != 1 {
			t.Fatalf("%v: %d run rows for a sampled 5-tuple, want 1", k, len(want))
		}
		w, got := want[0], pkt[k]
		if w.Proto == tstat.ProtoDNS {
			if w.PktsDown > 0 {
				answered++
			}
		} else {
			apps++
		}
		// The packet frontend emits a flow's records in start order; the
		// first is the flow as the run logged it.
		g := got[0]
		if g.Client != w.Client || g.CPort != w.CPort || g.Server != w.Server || g.SPort != w.SPort ||
			g.Proto != w.Proto || g.Domain != w.Domain || g.Start != w.Start || g.SatRTT != w.SatRTT {
			t.Errorf("packet path %+v\nrun         %+v", *g, *w)
			continue
		}
		var up, down, pup, pdown int64
		for i, r := range got {
			if i > 0 {
				// An idle-timeout split: UDP only, after a gap the
				// tracker's 60 s UDP idle timeout closed.
				if k.tcp || r.Start-got[i-1].End < time.Minute {
					t.Errorf("%v: record %d starts %v after the previous one ended: not an idle-timeout split", k, i, r.Start-got[i-1].End)
				}
				d.splits++
			}
			// A record opened by the server's packet names the server
			// as its client; orient it by the run's row.
			if r.Client == w.Client && r.CPort == w.CPort {
				up, down, pup, pdown = up+r.BytesUp, down+r.BytesDown, pup+r.PktsUp, pdown+r.PktsDown
			} else {
				up, down, pup, pdown = up+r.BytesDown, down+r.BytesUp, pup+r.PktsDown, pdown+r.PktsUp
			}
		}
		if up != w.BytesUp || down != w.BytesDown || pup != w.PktsUp || pdown != w.PktsDown {
			t.Errorf("%v: packet path bytes %d/%d pkts %d/%d, run %d/%d %d/%d",
				k, up, down, pup, pdown, w.BytesUp, w.BytesDown, w.PktsUp, w.PktsDown)
		}
		last := got[len(got)-1]
		d.end = max(d.end, absDur(last.End-w.End))
		if len(got) > 1 || g.BytesUp != w.BytesUp || g.BytesDown != w.BytesDown || g.PktsUp != w.PktsUp || g.PktsDown != w.PktsDown {
			d.perRecord++
		}
		if len(got) == 1 && !equalDurations(g.First10, w.First10) {
			d.first10++
		}
		d.rttN = max(d.rttN, g.GroundRTT.Samples-w.GroundRTT.Samples, w.GroundRTT.Samples-g.GroundRTT.Samples)
		gr, wr := g.GroundRTT, w.GroundRTT
		d.rttStats = max(d.rttStats, absDur(gr.Min-wr.Min), absDur(gr.Avg-wr.Avg), absDur(gr.Max-wr.Max), absDur(gr.Std-wr.Std))
	}
	if apps != sampled {
		t.Errorf("capture carries %d application flows, WritePcap sampled %d", apps, sampled)
	}

	// Every DNS row of the capture is one of the run's, byte for byte, and
	// every answered DNS flow of the sample left one.
	runDNS := map[tstat.DNSRecord]int{}
	for _, r := range out.DNS {
		runDNS[r]++
	}
	for _, r := range dns {
		if runDNS[r] == 0 {
			t.Errorf("packet-path DNS row %+v is not in the run's log", r)
		}
		runDNS[r]--
	}
	if len(dns) != answered {
		t.Errorf("%d packet-path DNS rows, %d answered DNS flows in the sample", len(dns), answered)
	}
	return d
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// denseFaults cuts a flow somewhere every five minutes (gateway
// switchovers), kills every beam for an hour and every resolver for ten
// minutes: the stress preset's mechanisms often enough that small sampled
// flows meet each of them.
func denseFaults() *faults.Schedule {
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.BeamOutage, Start: 10 * time.Hour, End: 11 * time.Hour, Beam: -1},
		{Kind: faults.DNSOutage, Start: 12 * time.Hour, End: 12*time.Hour + 10*time.Minute, Beam: -1},
	}}
	for at := time.Minute; at < 24*time.Hour; at += 5 * time.Minute {
		sched.Events = append(sched.Events, faults.Event{Kind: faults.GatewaySwitch, Start: at, End: at + 30*time.Second, Beam: -1, RTTStep: 26 * time.Millisecond})
	}
	return sched
}

// oraclePick samples four times as densely as WritePcap, and takes every
// opaque TCP, RTP and opaque UDP intent up to 1 MiB: those are rarely
// under the capture's byte cap, and only they last long enough to be split
// at the UDP idle timeout.
func oraclePick(customer, day, index int, fi *workload.FlowIntent) bool {
	size := fi.Down + fi.Up
	switch fi.Proto {
	case cdn.AppTCPOther, cdn.AppRTP, cdn.AppUDPOther:
		return size <= 1<<20
	}
	return trace.Sampled(customer, day, index, pcapSampleN/4) && size <= pcapMaxBytes
}

// TestPacketPathMatchesInProcess is the packet path ≡ in-process path
// oracle: the flows oraclePick samples, rendered from the run's own
// segment events and replayed through the probe's packet frontend,
// reproduce the run's rows on every field DESIGN.md does not list as
// coalesced, for geo, leo, geo under the stress fault preset, and geo
// under dense faults.
func TestPacketPathMatchesInProcess(t *testing.T) {
	stress, err := faults.Preset("stress", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, constellation string
		faults              *faults.Schedule
	}{
		{"geo", "geo", nil},
		{"leo", "leo", nil},
		{"geo-stress", "geo", stress},
		{"geo-dense-faults", "geo", denseFaults()},
	} {
		out, err := Run(Config{Customers: 20, Days: 1, Seed: 42, Parallelism: 2, Constellation: tc.constellation, Faults: tc.faults})
		if err != nil {
			t.Fatal(err)
		}
		// Streamed: the oracle's capture runs to tens of megabytes.
		pr, pw := io.Pipe()
		defer pr.Close() // unblocks the writer if the replay fails
		var packets, sampled int
		go func() {
			var err error
			packets, sampled, err = out.writePcap(pw, math.MaxInt, oraclePick)
			pw.CloseWithError(err)
		}()
		flows, dns, epoch, rsts := replayPcap(t, pr)
		if !epoch.Equal(out.Epoch) {
			t.Fatalf("%s: capture starts on %v, the run's epoch is %v", tc.name, epoch, out.Epoch)
		}
		d := comparePaths(t, out, sampled, flows, dns)
		t.Logf("%s: %d flows, %d packets, %d flow records, %d DNS rows; splits %d, |end| ≤ %v, first10 differ on %d, |rtt_n| ≤ %d, |rtt min/avg/max/std| ≤ %v, per-record counts differ on %d",
			tc.name, sampled, packets, len(flows), len(dns), d.splits, d.end, d.first10, d.rttN, d.rttStats, d.perRecord)
		if tc.name == "geo-dense-faults" {
			requireFaultCoverage(t, rsts, flows)
		}
	}
}

// requireFaultCoverage fails unless the capture held gateway-cutoff RSTs
// and flows that died in a beam outage, over TCP and over UDP.
func requireFaultCoverage(t *testing.T, rsts int, flows []tstat.FlowRecord) {
	t.Helper()
	failedTCP, failedUDP := 0, 0
	for _, f := range flows {
		switch {
		case f.PktsDown > 0 || f.Proto == tstat.ProtoDNS:
		case keyOf(&f).tcp:
			failedTCP++
		default:
			failedUDP++
		}
	}
	t.Logf("coverage: %d RSTs, %d failed TCP flows, %d failed UDP flows", rsts, failedTCP, failedUDP)
	if rsts == 0 || failedTCP == 0 || failedUDP == 0 {
		t.Fatal("the dense-fault sample misses a fault mechanism")
	}
}

// TestSamplePcapIndependentOfParallelism: the sample is picked by flow
// identity and re-synthesized per customer, so the capture is byte-identical
// at any worker count.
func TestSamplePcapIndependentOfParallelism(t *testing.T) {
	var captures [2][]byte
	for i, par := range []int{1, 4} {
		out, err := Run(Config{Customers: 20, Days: 1, Seed: 7, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, _, err := out.WritePcap(&buf, 50); err != nil {
			t.Fatal(err)
		}
		captures[i] = buf.Bytes()
	}
	if len(captures[0]) < 1<<10 {
		t.Fatalf("capture of %d bytes", len(captures[0]))
	}
	if !bytes.Equal(captures[0], captures[1]) {
		t.Fatal("sample.pcap differs between 1 and 4 workers")
	}
}

// samplePcapGolden is the sha256 of TestSamplePcapGolden's capture. The
// oracle above checks decoded fields; this pins the bytes the renderer
// writes: IP ID, TTL and checksum, TCP window, UDP length.
const samplePcapGolden = "sha256:d136fd6d2e5d512d39d48183d4be58e09e4ee4c7005ce005bc5ae741876c4166"

// TestSamplePcapGolden pins the bytes of the sample capture of a small
// fixed run, so a change to the wire encoders that the decoder would not
// notice still fails.
func TestSamplePcapGolden(t *testing.T) {
	out, err := Run(Config{Customers: 20, Days: 1, Seed: 42, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	packets, sampled, err := out.WritePcap(h, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sampled != 50 {
		t.Fatalf("sampled %d flows, want 50", sampled)
	}
	if got := "sha256:" + hex.EncodeToString(h.Sum(nil)); got != samplePcapGolden {
		t.Errorf("capture of %d packets: digest %s, want %s", packets, got, samplePcapGolden)
	}
}
