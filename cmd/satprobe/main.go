// Command satprobe replays a pcap capture through the Tstat-style probe:
// every packet is decoded, flows are tracked, DPI names the servers, RTT
// estimators run, and the resulting flow/DNS logs are written as TSV, in
// the sorted order of every other log writer.
//
// Times (start_us, end_us, the DNS t_us) are measured from 00:00 UTC of
// the first packet's day, the epoch satgen's logs use: replaying a
// satgen sample.pcap reproduces the sampled flows' rows of its flows.tsv
// and dns.tsv (DESIGN.md, "Packet path vs in-process path", lists the
// columns that differ).
//
// Undecodable packets are skipped and counted, not fatal — a damaged
// capture still yields the flows it can. -debug-addr serves /metrics,
// /progress and /debug/pprof live during the replay (see
// OBSERVABILITY.md). Exit codes: 0 on success, 1 on error, 2 when
// packets had to be skipped (logs were salvaged from a partially
// decodable capture) or the replay was interrupted by SIGINT/SIGTERM
// (logs salvaged up to the stop point).
//
// Usage:
//
//	satprobe -in capture.pcap [-flows flows.tsv] [-dns dns.tsv]
//	         [-metrics FILE] [-debug-addr :6060] [-debug-linger 0s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"satwatch/internal/obs"
	"satwatch/internal/pcapio"
	"satwatch/internal/tstat"
)

func main() { obs.Main("satprobe", run) }

func run() (int, error) {
	in := flag.String("in", "", "pcap capture to replay (required)")
	flowsOut := flag.String("flows", "", "write flow log TSV here (default: stdout summary only)")
	dnsOut := flag.String("dns", "", "write DNS log TSV here")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump here after the replay")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /progress and /debug/pprof on this address")
	debugLinger := flag.Duration("debug-linger", 0, "keep the debug server up this long after the replay completes")
	flag.Parse()

	// Metrics are cleared at run start so every dump and debug endpoint
	// reflects this run only, not process-lifetime totals.
	obs.Default.Reset()
	start := time.Now()
	if *in == "" {
		flag.Usage()
		return 0, fmt.Errorf("-in is required")
	}

	// Replay progress for the /progress endpoint; the counters are
	// atomics because the debug server reads them mid-loop.
	var packets, badPackets atomic.Int64
	stopDebug, err := obs.ServeDebug(*debugAddr, *debugLinger, func() any {
		return struct {
			Packets        int64   `json:"packets"`
			BadPackets     int64   `json:"bad_packets"`
			ElapsedSeconds float64 `json:"elapsed_seconds"`
		}{packets.Load(), badPackets.Load(), time.Since(start).Seconds()}
	})
	if err != nil {
		return 0, err
	}
	defer stopDebug()

	f, err := os.Open(*in)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := pcapio.NewReader(f)
	if err != nil {
		return 0, err
	}
	if rd.LinkType() != pcapio.LinkTypeRaw {
		return 0, fmt.Errorf("capture link type %d, need LINKTYPE_RAW (%d)", rd.LinkType(), pcapio.LinkTypeRaw)
	}

	// First SIGINT/SIGTERM stops the replay at a packet boundary and
	// salvages the logs tracked so far; a second one kills the process.
	ctx, stop := obs.SignalContext()
	defer stop()

	tr := tstat.NewTracker(tstat.Config{})
	var epoch time.Time
	interrupted := false
	for !interrupted {
		select {
		case <-ctx.Done():
			interrupted = true
			continue
		default:
		}
		ts, data, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("reading capture: %w", err)
		}
		if epoch.IsZero() {
			epoch = ts.UTC().Truncate(24 * time.Hour)
		}
		if err := tr.FeedPacket(ts.Sub(epoch), data); err != nil {
			badPackets.Add(1)
			continue
		}
		packets.Add(1)
	}
	flows, dns := tr.Flush()
	tstat.SortFlows(flows)
	tstat.SortDNS(dns)
	if interrupted {
		fmt.Fprintln(os.Stderr, "satprobe: interrupted, salvaging logs tracked so far")
	}

	fmt.Printf("replayed %d packets (%d undecodable): %d flows, %d DNS transactions\n",
		packets.Load(), badPackets.Load(), len(flows), len(dns))
	var byProto [tstat.ProtoUDPOther + 1]int
	withDomain := 0
	for i := range flows {
		byProto[flows[i].Proto]++
		if flows[i].Domain != "" {
			withDomain++
		}
	}
	for p, n := range byProto {
		if n > 0 {
			fmt.Printf("  %-10s %d flows\n", tstat.Protocol(p), n)
		}
	}
	fmt.Printf("  DPI named %d/%d flows\n", withDomain, len(flows))

	if *flowsOut != "" {
		if err := obs.WriteFileAtomic(*flowsOut, func(w io.Writer) error {
			return tstat.WriteFlows(w, flows)
		}); err != nil {
			return 0, err
		}
		fmt.Printf("flow log written to %s\n", *flowsOut)
	}
	if *dnsOut != "" {
		if err := obs.WriteFileAtomic(*dnsOut, func(w io.Writer) error {
			return tstat.WriteDNS(w, dns)
		}); err != nil {
			return 0, err
		}
		fmt.Printf("DNS log written to %s\n", *dnsOut)
	}
	if *metricsOut != "" {
		if err := obs.DumpMetrics(*metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}

	if interrupted || badPackets.Load() > 0 {
		if badPackets.Load() > 0 {
			fmt.Fprintf(os.Stderr, "satprobe: skipped %d undecodable packets\n", badPackets.Load())
		}
		return 2, nil
	}
	return 0, nil
}
