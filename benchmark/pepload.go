package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/linkemu"
	"satwatch/internal/pep"
	"satwatch/internal/tunnel"
)

// The pepload topology: the shape pep.RunLoad and the satbench pepload
// scenarios use. pep.RunLoad itself reports only p50/p99 and keeps no
// per-flow samples, so the benchmark drives the same stack through the
// packages' public constructors and times every flow itself.
var (
	pepLink   = linkemu.Link{Delay: 20 * time.Millisecond, Jitter: 4 * time.Millisecond, Loss: 0.005}
	pepTunnel = tunnel.Config{RTO: 120 * time.Millisecond, Window: 64, MaxPayload: 1200}
	// pepDeck is the 8k:0.6,64k:0.3,256k:0.1 mix dealt exactly: every ten
	// flows carry these ten sizes, in an order the seed shuffles. Drawing
	// each size independently would move the bytes a run carries, and with
	// them every per-flow metric, by ±8 % from seed to seed.
	pepDeck = [10]int{8 << 10, 8 << 10, 8 << 10, 8 << 10, 8 << 10, 8 << 10, 64 << 10, 64 << 10, 64 << 10, 256 << 10}
)

const (
	pepBringups     = 5
	pepDrainTimeout = 30 * time.Second
)

// flowSize is the i-th flow's request size, a pure function of the seed.
func flowSize(root *dist.Rand, i uint64) int {
	deck := pepDeck
	root.ForkN("deck", i/uint64(len(deck))).Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	return deck[i%uint64(len(deck))]
}

// pepStack is origin ← gateway ← emulated link ← CPE ← listener, all on
// host loopback or in-process.
type pepStack struct {
	origin, cpeLn net.Listener
	cpe           *pep.CPE
	gw            *pep.Gateway
	served        sync.WaitGroup
}

func newPepStack(seed uint64) (*pepStack, error) {
	s := &pepStack{}
	var err error
	if s.origin, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	if s.cpeLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.origin.Close()
		return nil, fmt.Errorf("cpe listen: %w", err)
	}
	cfg := pepTunnel
	cfg.AcceptBacklog = workers()
	linkA, linkB := linkemu.NewPair(pepLink, pepLink, seed)
	s.cpe = pep.NewCPE(linkA, cfg, nil)
	s.gw = pep.NewGateway(linkB, cfg, nil, nil)
	s.served.Add(3)
	go func() { defer s.served.Done(); serveOrigin(s.origin) }()
	// Serve and ServeListener return when close() shuts their tunnel or
	// listener; their errors say only that.
	go func() { defer s.served.Done(); _ = s.gw.Serve() }()
	go func() { defer s.served.Done(); _ = s.cpe.ServeListener(s.cpeLn, s.origin.Addr().String()) }()
	return s, nil
}

// drain waits for both stream tables to empty (FINs and their ACKs still
// need link round trips) and returns how many streams are left.
func (s *pepStack) drain() int {
	deadline := time.Now().Add(pepDrainTimeout)
	for time.Now().Before(deadline) && s.cpe.ActiveStreams()+s.gw.ActiveStreams() > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	return s.cpe.ActiveStreams() + s.gw.ActiveStreams()
}

func (s *pepStack) close() {
	s.cpeLn.Close()
	s.origin.Close()
	s.cpe.Close()
	s.gw.Close()
	s.served.Wait()
}

// serveOrigin answers a 4-byte big-endian size with that many bytes.
func serveOrigin(ln net.Listener) {
	pattern := make([]byte, 32<<10)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer conn.Close()
			var req [4]byte
			if _, err := io.ReadFull(conn, req[:]); err != nil {
				return
			}
			for left := int(binary.BigEndian.Uint32(req[:])); left > 0; {
				n := min(left, len(pattern))
				if _, err := conn.Write(pattern[:n]); err != nil {
					return
				}
				left -= n
			}
		}()
	}
}

// flowTiming is one customer flow: connect to the CPE (split TCP: no link
// round trip), then request → EOF through the tunnel.
type flowTiming struct {
	start, connected, done time.Time
	size, got              int64
	err                    error
}

func runFlow(addr string, size int) flowTiming {
	ft := flowTiming{start: time.Now(), size: int64(size)}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		ft.err, ft.done = err, time.Now()
		return ft
	}
	defer conn.Close()
	ft.connected = time.Now()
	var req [4]byte
	binary.BigEndian.PutUint32(req[:], uint32(size))
	if _, ft.err = conn.Write(req[:]); ft.err == nil {
		ft.got, ft.err = io.Copy(io.Discard, conn)
	}
	ft.done = time.Now()
	if ft.err == nil && ft.got != ft.size {
		ft.err = fmt.Errorf("flow got %d bytes, want %d", ft.got, ft.size)
	}
	return ft
}

// bringup stands the stack up, carries one 8 KiB flow to prove the path,
// and tears it down: pepload's set-up, timed to the flow's last byte.
func bringup(seed uint64) (time.Duration, error) {
	start := time.Now()
	s, err := newPepStack(seed)
	if err != nil {
		return 0, err
	}
	defer s.close()
	ft := runFlow(s.cpeLn.Addr().String(), 8<<10)
	if ft.err != nil {
		return 0, fmt.Errorf("bring-up flow: %w", ft.err)
	}
	d := ft.done.Sub(start)
	if left := s.drain(); left != 0 {
		return 0, fmt.Errorf("bring-up leaked %d streams", left)
	}
	return d, nil
}

// pepRun is one closed-loop load section.
type pepRun struct {
	Cost                   cost
	Flows                  []flowTiming
	Frames, Retransmits    float64
	Stalls, Reset, Timeout float64
	DialRetries, RelayErrs float64
}

var pepCounters = []string{
	"tunnel_frames_sent_total", "tunnel_retransmits_total", "tunnel_window_stalls_total",
	"tunnel_streams_reset_total", "tunnel_streams_timedout_total",
	"pep_dial_retries_total", "pep_relay_errors_total",
}

// runPepLoad drives P clients, each starting its next flow when the last
// one ended, for the given wall time. t may be nil.
func runPepLoad(seed uint64, seconds float64, t *tracer) (*pepRun, error) {
	s, err := newPepStack(seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	addr := s.cpeLn.Addr().String()
	root := dist.NewRand(seed)
	before := map[string]float64{}
	for _, name := range pepCounters {
		before[name] = counter(name)
	}

	var (
		next    atomic.Uint64
		mu      sync.Mutex
		flows   []flowTiming
		clients sync.WaitGroup
	)
	begin := readUsage()
	deadline := begin.at.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < workers(); c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			// One root span per client: the clients run side by side, so
			// their spans, not the wall clock, are what flows add up to.
			span := t.open(0, c, "client", "bench")
			var mine []flowTiming
			for time.Now().Before(deadline) {
				ft := runFlow(addr, flowSize(root, next.Add(1)-1))
				t.add(span, c, "flow", "pep", ft.start, ft.done, false)
				mine = append(mine, ft)
			}
			t.close(span)
			mu.Lock()
			flows = append(flows, mine...)
			mu.Unlock()
		}()
	}
	clients.Wait()
	r := &pepRun{Cost: readUsage().since(begin), Flows: flows}
	leaked := s.drain()

	delta := func(name string) float64 { return counter(name) - before[name] }
	r.Frames, r.Retransmits = delta("tunnel_frames_sent_total"), delta("tunnel_retransmits_total")
	r.Stalls = delta("tunnel_window_stalls_total")
	r.Reset, r.Timeout = delta("tunnel_streams_reset_total"), delta("tunnel_streams_timedout_total")
	r.DialRetries, r.RelayErrs = delta("pep_dial_retries_total"), delta("pep_relay_errors_total")
	return r, checkPepload(leaked, flows)
}

// checkPepload: a pepload run is invalid if a tunnel stream outlived the
// drain or the bytes delivered differ from the bytes requested by the
// flows that reported success.
func checkPepload(leaked int, flows []flowTiming) error {
	if leaked != 0 {
		return fmt.Errorf("%d tunnel streams leaked after the drain", leaked)
	}
	if len(flows) == 0 {
		return fmt.Errorf("no flow completed")
	}
	var want, got int64
	for _, ft := range flows {
		if ft.err == nil {
			want, got = want+ft.size, got+ft.got
		}
	}
	if want != got {
		return fmt.Errorf("bytes down %d, requested %d", got, want)
	}
	return nil
}

// latencies returns the sorted transfer and handshake times (ms) of the
// flows that succeeded, and how many failed.
func latencies(flows []flowTiming) (xfer, handshake []float64, failed int64) {
	for _, ft := range flows {
		if ft.err != nil {
			failed++
			continue
		}
		xfer = append(xfer, float64(ft.done.Sub(ft.connected).Microseconds())/1000)
		handshake = append(handshake, float64(ft.connected.Sub(ft.start).Microseconds())/1000)
	}
	sort.Float64s(xfer)
	sort.Float64s(handshake)
	return xfer, handshake, failed
}

func runPepload(res *Result, seed uint64, seconds float64) error {
	cpuPerFlow := func(r *pepRun) float64 { return float64(r.Cost.CPU.Microseconds()) / float64(len(r.Flows)) }
	if !res.Traced {
		var setups []float64
		for i := 0; i < pepBringups; i++ {
			d, err := bringup(seed + uint64(i))
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		r, err := runPepLoad(seed, seconds, nil)
		if err != nil {
			return err
		}
		xfer, _, failed := latencies(r.Flows)
		if len(xfer) == 0 {
			return fmt.Errorf("all %d flows failed", len(r.Flows))
		}
		n := float64(len(r.Flows))
		res.set("setup_s", setups...)
		res.set("run_s", 100*r.Cost.Wall.Seconds()/n)
		res.set("flows_per_s", n/r.Cost.Wall.Seconds())
		res.set("cpu_us_per_flow", cpuPerFlow(r))
		res.set("allocs_per_flow", float64(r.Cost.Mallocs)/n)
		res.set("alloc_bytes_per_flow", float64(r.Cost.Bytes)/n)
		res.set("xfer_p95_ms", tail(xfer))
		res.set("xfer_p50_ms", xfer...)
		res.Attempted, res.Failed = int64(len(r.Flows)), failed
		res.setOK()
		res.Notes["flows"] = n
		res.Notes["tail_percentile_supported"] = tailPercentile(len(xfer))
		return setPeakRSS(res)
	}

	plain, err := runPepLoad(seed, seconds/2, nil)
	if err != nil {
		return err
	}
	t := newTracer(wlPepload)
	r, err := runPepLoad(seed, seconds/2, t)
	if err != nil {
		return err
	}
	_, handshake, failed := latencies(r.Flows)
	if len(handshake) == 0 {
		return fmt.Errorf("all %d flows failed", len(r.Flows))
	}
	_, _, plainFailed := latencies(plain.Flows)
	res.Attempted, res.Failed = int64(len(plain.Flows)+len(r.Flows)), plainFailed+failed
	n := float64(len(r.Flows))
	res.set("pep.handshake_ms_p50", percentile(handshake, 50))
	res.set("pep.dial_retries", r.DialRetries)
	res.set("pep.relay_errors", r.RelayErrs)
	res.set("tunnel.frames_sent", r.Frames)
	res.set("tunnel.frames_per_flow", r.Frames/n)
	res.set("tunnel.retransmits", r.Retransmits)
	res.set("tunnel.retransmit_ratio", r.Retransmits/r.Frames)
	res.set("tunnel.window_stalls", r.Stalls)
	res.set("tunnel.streams_reset", r.Reset)
	res.set("tunnel.streams_timedout", r.Timeout)
	res.set("bench.span_overhead_ratio", cpuPerFlow(r)/cpuPerFlow(plain))
	res.Notes["flows"] = n

	b := budget(t.all())
	res.Budget = &b
	res.set("pep.self_share", b.share("pep"))
	res.set("bench.self_share", b.share("bench"))
	if err := checkBudget(b); err != nil {
		return err
	}
	if err := microTunnel(res, seed); err != nil {
		return err
	}
	return writeSpans(res.Workload, t)
}
