// Command satpep is the load harness for the RFC 3135 split-TCP PEP: it
// drives N concurrent split-TCP flows with a configurable size mix
// through a CPE↔gateway pair over an in-process emulated satellite
// link, optionally plays a fault schedule (-faults) into the link, and
// prints a flows/s + p50/p99 summary. The run fails (exit 1) if any flow
// errors or any tunnel stream is still in a stream table after the
// post-run drain.
//
// Exit codes: 0 on success, 1 on error.
//
// Usage:
//
//	satpep [-flows 1000] [-concurrency 0] [-mix 8k:0.6,64k:0.3,256k:0.1]
//	       [-delay 270ms] [-jitter 30ms] [-loss 0.005] [-rate 0]
//	       [-faults PRESET|FILE] [-fault-speedup 1000] [-seed 1]
//	       [-rto 1500ms] [-metrics FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"satwatch/internal/faults"
	"satwatch/internal/linkemu"
	"satwatch/internal/obs"
	"satwatch/internal/pep"
	"satwatch/internal/tunnel"
)

func main() { obs.Main("satpep", run) }

func run() (int, error) {
	flows := flag.Int("flows", 1000, "total flows to run")
	concurrency := flag.Int("concurrency", 0, "max flows in flight (0 = no cap)")
	mixArg := flag.String("mix", "8k:0.6,64k:0.3,256k:0.1", "flow-size mix as size:weight pairs")
	delay := flag.Duration("delay", 270*time.Millisecond, "one-way link delay")
	jitter := flag.Duration("jitter", 30*time.Millisecond, "link jitter")
	loss := flag.Float64("loss", 0.005, "link loss probability")
	rate := flag.Float64("rate", 0, "link serialization rate in bytes/s (0 = unlimited)")
	faultsArg := flag.String("faults", "", "fault schedule (preset name or JSON file) played into the live link")
	faultSpeedup := flag.Float64("fault-speedup", 1000, "schedule seconds per wall second")
	seed := flag.Uint64("seed", 1, "seed for link and mix")
	rto := flag.Duration("rto", 1500*time.Millisecond, "initial tunnel RTO")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump here on exit")
	flag.Parse()

	// Metrics are cleared at run start so the dump reflects this run only.
	obs.Default.Reset()

	// First SIGINT/SIGTERM stops launching flows and drains gracefully
	// (the load report and metrics dump still get written); a second one
	// kills the process.
	ctx, stop := obs.SignalContext()
	defer stop()

	mix, err := pep.ParseMix(*mixArg)
	if err != nil {
		return 0, err
	}
	var sched *faults.Schedule
	if *faultsArg != "" {
		sched, err = faults.Load(*faultsArg, 1, *seed)
		if err != nil {
			return 0, err
		}
		faults.RecordActive(sched)
	}
	fmt.Printf("load: %d flows (mix %s) over %v/%v/%.3f link, faults=%q\n",
		*flows, *mixArg, *delay, *jitter, *loss, *faultsArg)

	rep, err := pep.RunLoad(pep.LoadConfig{
		Flows:        *flows,
		Concurrency:  *concurrency,
		Mix:          mix,
		Link:         linkemu.Link{Delay: *delay, Jitter: *jitter, Loss: *loss, RateBps: *rate},
		Tunnel:       tunnel.Config{RTO: *rto, Window: 64, MaxPayload: 1200},
		Seed:         *seed,
		Faults:       sched,
		FaultSpeedup: *faultSpeedup,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Ctx: ctx,
	})
	if err != nil {
		return 0, err
	}
	fmt.Println(rep)

	if *metricsOut != "" {
		if err := obs.DumpMetrics(*metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
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
