package pep

// The load harness behind `satpep -load`: it stands up a full
// CPE↔gateway pair over an emulated satellite link, drives thousands of
// concurrent split-TCP flows through it with a configurable size and
// arrival mix, optionally plays a fault schedule (rain fade, beam
// outage, gateway switch) into the live link, and verifies that the
// stream tables drain to zero afterwards — the leak check the tunnel
// lifecycle fixes are measured against.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/linkemu"
	"satwatch/internal/obs"
	"satwatch/internal/tunnel"
)

// Load-harness metrics (see OBSERVABILITY.md): the two the CI pepload
// gate asserts on. Everything else about a run is in LoadReport.
var (
	mLoadErrors = obs.NewCounter("pep_load_flow_errors_total",
		"Load-harness flows that failed (dial error, short or failed transfer).", "")
	mLoadLeaked = obs.NewGauge("pep_load_leaked_streams",
		"Tunnel streams still in the CPE+gateway tables after the post-run drain (must be 0).", "")
)

// SizeWeight is one entry of the flow-size mix.
type SizeWeight struct {
	Bytes  int
	Weight float64
}

// ParseMix parses a flow-size mix such as "8k:0.6,64k:0.3,256k:0.1"
// (size:weight pairs; sizes accept k/m suffixes; weights need not sum
// to 1 — they are normalized).
func ParseMix(s string) ([]SizeWeight, error) {
	var mix []SizeWeight
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sz, weight, ok := strings.Cut(part, ":")
		w := 1.0
		if ok {
			var err error
			w, err = strconv.ParseFloat(weight, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("pep: bad mix weight %q", part)
			}
		}
		n, err := parseSize(sz)
		if err != nil {
			return nil, err
		}
		mix = append(mix, SizeWeight{Bytes: n, Weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("pep: empty flow-size mix %q", s)
	}
	return mix, nil
}

func parseSize(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("pep: bad flow size %q", s)
	}
	return n * mult, nil
}

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Flows is the total number of flows to run (default 1000).
	Flows int
	// Concurrency caps flows in flight; 0 means no cap beyond Flows.
	Concurrency int
	// Mix is the flow-size distribution; nil means 8k:0.6,64k:0.3,256k:0.1.
	Mix []SizeWeight
	// ArrivalRate is the Poisson flow-arrival rate in flows/s; 0 starts
	// flows as fast as the concurrency cap admits them.
	ArrivalRate float64
	// Link shapes both directions of the emulated satellite path.
	Link linkemu.Link
	// Tunnel tunes the ARQ on both tunnel endpoints.
	Tunnel tunnel.Config
	// Seed drives the link, the mix and the arrival process.
	Seed uint64
	// Faults, when non-nil, is played into the live link: rain fade and
	// beam outages become extra loss, gateway switches extra delay.
	Faults *faults.Schedule
	// FaultSpeedup compresses the schedule: wall seconds × FaultSpeedup =
	// schedule seconds (default 1; a day-long schedule at 1000× plays in
	// ~86 s).
	FaultSpeedup float64
	// DrainTimeout bounds the post-run wait for empty stream tables
	// (default 30 s).
	DrainTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Ctx, when non-nil, stops the run gracefully on cancellation: no new
	// flows are launched, in-flight flows finish, and the drain check
	// still runs. Used for SIGINT/SIGTERM handling in satpep.
	Ctx context.Context
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Flows <= 0 {
		c.Flows = 1000
	}
	if c.Concurrency <= 0 || c.Concurrency > c.Flows {
		c.Concurrency = c.Flows
	}
	if len(c.Mix) == 0 {
		c.Mix = []SizeWeight{{8 << 10, 0.6}, {64 << 10, 0.3}, {256 << 10, 0.1}}
	}
	if c.FaultSpeedup <= 0 {
		c.FaultSpeedup = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// LoadReport summarizes one load run.
type LoadReport struct {
	Flows          int           `json:"flows"`
	Errors         int           `json:"errors"`
	Duration       time.Duration `json:"duration_ns"`
	FlowsPerSecond float64       `json:"flows_per_second"`
	BytesDown      int64         `json:"bytes_down"`
	PeakConcurrent int           `json:"peak_concurrent"`
	HandshakeP50   time.Duration `json:"handshake_p50_ns"`
	HandshakeP99   time.Duration `json:"handshake_p99_ns"`
	TransferP50    time.Duration `json:"transfer_p50_ns"`
	TransferP99    time.Duration `json:"transfer_p99_ns"`
	LeakedCPE      int           `json:"leaked_cpe_streams"`
	LeakedGW       int           `json:"leaked_gw_streams"`
	Retransmits    int64         `json:"retransmits"`
	FaultTicks     int64         `json:"fault_ticks"`
	// ObjectsPerFlow is the heap objects the process allocated during the
	// load section (clients, both proxy halves, link, origin), per flow.
	ObjectsPerFlow float64 `json:"objects_per_flow"`
}

// Leaked returns the total leaked streams across both tunnel endpoints.
func (r *LoadReport) Leaked() int { return r.LeakedCPE + r.LeakedGW }

// String renders the per-run summary the CLI prints.
func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"flows=%d errors=%d duration=%.1fs flows/s=%.1f bytes_down=%d peak_concurrent=%d\n"+
			"handshake p50=%s p99=%s  transfer p50=%s p99=%s\n"+
			"retransmits=%d fault_ticks=%d leaked_streams=%d (cpe=%d gw=%d) objects_per_flow=%.1f",
		r.Flows, r.Errors, r.Duration.Seconds(), r.FlowsPerSecond, r.BytesDown, r.PeakConcurrent,
		r.HandshakeP50.Round(time.Millisecond), r.HandshakeP99.Round(time.Millisecond),
		r.TransferP50.Round(time.Millisecond), r.TransferP99.Round(time.Millisecond),
		r.Retransmits, r.FaultTicks, r.Leaked(), r.LeakedCPE, r.LeakedGW, r.ObjectsPerFlow)
}

func counterValue(name string) int64 {
	if s, ok := obs.Default.Get(name); ok {
		return int64(s.Value)
	}
	return 0
}

// RunLoad executes one load run: origin server, gateway, CPE, emulated
// link, N flows, fault playback, and the post-run drain check.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Tunnel.AcceptBacklog == 0 {
		// A gateway sized for this load: the whole admitted burst can be
		// in stream setup at once, and a backlog overflow means resets.
		cfg.Tunnel.AcceptBacklog = cfg.Concurrency
	}
	rnd := dist.NewRand(cfg.Seed)

	// Origin: reads a 4-byte big-endian size, streams that many bytes
	// back, closes. One goroutine per connection.
	origin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pep: origin listen: %w", err)
	}
	defer origin.Close()
	go serveOrigin(origin)

	// Emulated link and the two proxy halves.
	linkA, linkB := linkemu.NewPair(cfg.Link, cfg.Link, cfg.Seed)
	cpe := NewCPE(linkA, cfg.Tunnel, nil)
	gw := NewGateway(linkB, cfg.Tunnel, nil, nil)
	defer cpe.Close()
	defer gw.Close()
	go gw.Serve()

	cpeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pep: cpe listen: %w", err)
	}
	defer cpeLn.Close()
	go cpe.ServeListener(cpeLn, origin.Addr().String())

	// Fault playback into the live link.
	stopFaults := make(chan struct{})
	var faultTicks atomic.Int64
	if cfg.Faults != nil {
		go playFaults(cfg.Faults, cfg.FaultSpeedup, linkA, linkB, &faultTicks, stopFaults)
	}

	retransBase := counterValue("tunnel_retransmits_total")
	cpeAddr := cpeLn.Addr().String()
	mix := normalizeMix(cfg.Mix)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		handshake []time.Duration
		transfer  []time.Duration
		errCount  int
		bytesDown int64
		active    atomic.Int64
		peak      atomic.Int64
	)
	sem := make(chan struct{}, cfg.Concurrency)
	arrivals := rnd.Fork("arrivals")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	start := time.Now()
	launched := 0
	for i := 0; i < cfg.Flows; i++ {
		if cfg.Ctx.Err() != nil {
			cfg.Logf("pep/load: interrupted after %d/%d flows, draining", launched, cfg.Flows)
			break
		}
		if cfg.ArrivalRate > 0 {
			time.Sleep(time.Duration(arrivals.ExpFloat64() / cfg.ArrivalRate * float64(time.Second)))
		}
		size := pickSize(mix, rnd.ForkN("size", uint64(i)).Float64())
		sem <- struct{}{}
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			defer func() { <-sem }()
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			defer active.Add(-1)

			hs, tr, n, ferr := runFlow(cpeAddr, size)
			mu.Lock()
			if ferr != nil {
				errCount++
				mu.Unlock()
				mLoadErrors.Inc()
				return
			}
			handshake = append(handshake, hs)
			transfer = append(transfer, tr)
			bytesDown += n
			mu.Unlock()
		}(size)
		launched++
		if launched%500 == 0 {
			cfg.Logf("pep/load: %d/%d flows launched, %d in flight", launched, cfg.Flows, active.Load())
		}
	}
	wg.Wait()
	duration := time.Since(start)
	runtime.ReadMemStats(&mem)
	mallocs = mem.Mallocs - mallocs
	close(stopFaults)

	// Drain: every stream must leave both tables. FINs and their ACKs
	// still need satellite round trips, so poll up to DrainTimeout.
	deadline := time.Now().Add(cfg.DrainTimeout)
	for time.Now().Before(deadline) && cpe.ActiveStreams()+gw.ActiveStreams() > 0 {
		time.Sleep(20 * time.Millisecond)
	}

	rep := &LoadReport{
		Flows:          launched,
		Errors:         errCount,
		Duration:       duration,
		FlowsPerSecond: float64(launched) / duration.Seconds(),
		BytesDown:      bytesDown,
		PeakConcurrent: int(peak.Load()),
		HandshakeP50:   percentile(handshake, 0.50),
		HandshakeP99:   percentile(handshake, 0.99),
		TransferP50:    percentile(transfer, 0.50),
		TransferP99:    percentile(transfer, 0.99),
		LeakedCPE:      cpe.ActiveStreams(),
		LeakedGW:       gw.ActiveStreams(),
		Retransmits:    counterValue("tunnel_retransmits_total") - retransBase,
		FaultTicks:     faultTicks.Load(),
	}
	if launched > 0 {
		rep.ObjectsPerFlow = float64(mallocs) / float64(launched)
	}
	mLoadLeaked.Set(float64(rep.Leaked()))
	return rep, nil
}

// runFlow runs one customer flow: connect to the CPE (handshake), send
// the 4-byte size request, read the response to EOF (transfer).
func runFlow(cpeAddr string, size int) (handshake, transfer time.Duration, n int64, err error) {
	t0 := time.Now()
	conn, err := net.Dial("tcp", cpeAddr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer conn.Close()
	handshake = time.Since(t0)

	t1 := time.Now()
	var req [4]byte
	binary.BigEndian.PutUint32(req[:], uint32(size))
	if _, err := conn.Write(req[:]); err != nil {
		return handshake, 0, 0, err
	}
	n, err = io.Copy(io.Discard, conn)
	transfer = time.Since(t1)
	if err != nil {
		return handshake, transfer, n, err
	}
	if n != int64(size) {
		return handshake, transfer, n, fmt.Errorf("pep: flow got %d bytes, want %d", n, size)
	}
	return handshake, transfer, n, nil
}

func serveOrigin(ln net.Listener) {
	pattern := make([]byte, 32<<10)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			var req [4]byte
			if _, err := io.ReadFull(conn, req[:]); err != nil {
				return
			}
			left := int(binary.BigEndian.Uint32(req[:]))
			for left > 0 {
				n := left
				if n > len(pattern) {
					n = len(pattern)
				}
				if _, err := conn.Write(pattern[:n]); err != nil {
					return
				}
				left -= n
			}
		}(conn)
	}
}

// playFaults maps the schedule onto live link conditions at the given
// speedup until stopped: the worst active rain fade over all beams adds
// loss, a beam outage is total loss, and a gateway switch adds one-way
// delay.
func playFaults(sched *faults.Schedule, speedup float64, a, b *linkemu.Endpoint, ticks *atomic.Int64, stop <-chan struct{}) {
	const interval = 50 * time.Millisecond
	tick := time.NewTicker(interval)
	defer tick.Stop()
	beams := geo.Beams()
	start := time.Now()
	applied := linkemu.Conditions{}
	for {
		select {
		case <-stop:
			// Leave the link clean for the drain phase.
			a.SetConditions(linkemu.Conditions{})
			b.SetConditions(linkemu.Conditions{})
			return
		case <-tick.C:
		}
		simT := time.Duration(float64(time.Since(start)) * speedup)
		cond := conditionsAt(sched, simT, beams)
		if cond != applied {
			a.SetConditions(cond)
			b.SetConditions(cond)
			applied = cond
		}
		if cond != (linkemu.Conditions{}) {
			ticks.Add(1)
		}
	}
}

// conditionsAt reduces every fault event active at simT to one link
// condition. Overlapping events compose instead of clobbering: concurrent
// rain fronts take the worst intensity, an outage dominates any fade, and
// a gateway switch's extra delay stacks on top of whatever loss the
// weather contributes (the detour RTT splits across the two one-way
// directions). It is a pure function of (schedule, simT, beams) so tests
// can probe overlap semantics directly.
func conditionsAt(sched *faults.Schedule, simT time.Duration, beams []geo.Beam) linkemu.Conditions {
	var cond linkemu.Conditions
	rain := 0.0
	down := false
	for _, bm := range beams {
		if r := sched.Rain(simT, bm.ID); r > rain {
			rain = r
		}
		if sched.BeamDown(simT, bm.ID) {
			down = true
		}
	}
	switch {
	case down:
		cond.ExtraLoss = 1.0
	default:
		// A deep fade past the ACM floor drops frames: map intensity
		// onto up to 20% extra loss.
		cond.ExtraLoss = 0.2 * rain
	}
	cond.ExtraDelay = sched.GatewayRTTExtra(simT) / 2
	return cond
}

func normalizeMix(mix []SizeWeight) []SizeWeight {
	total := 0.0
	for _, m := range mix {
		total += m.Weight
	}
	out := make([]SizeWeight, len(mix))
	for i, m := range mix {
		out[i] = SizeWeight{Bytes: m.Bytes, Weight: m.Weight / total}
	}
	return out
}

func pickSize(mix []SizeWeight, u float64) int {
	acc := 0.0
	for _, m := range mix {
		acc += m.Weight
		if u < acc {
			return m.Bytes
		}
	}
	return mix[len(mix)-1].Bytes
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
