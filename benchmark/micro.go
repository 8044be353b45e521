package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"os"
	"sort"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/geo"
	"satwatch/internal/linkemu"
	"satwatch/internal/live"
	"satwatch/internal/mac"
	"satwatch/internal/netsim"
	"satwatch/internal/obs"
	"satwatch/internal/packet"
	"satwatch/internal/pepmodel"
	"satwatch/internal/phy"
	"satwatch/internal/shaper"
	"satwatch/internal/tstat"
	"satwatch/internal/tunnel"
	"satwatch/internal/workload"
)

// Micro-measurements behind the per-layer table: one loop per layer over
// its public entry points, run after a traced workload. They use the same
// seed and sizes as the workload they follow.

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64

// nsPerOp calls fn in batches for at least 100 ms and returns the mean.
func nsPerOp(fn func()) float64 {
	const batch = 1000
	n, start := 0, time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// macPrebuild is what the two MAC child processes print.
type macPrebuild struct {
	Seconds float64   `json:"seconds"`
	Allocs  float64   `json:"allocs"`
	AllocMB float64   `json:"alloc_mb"`
	CellMS  []float64 `json:"cell_ms"`
}

// childMACPrebuild builds the whole grid with P builders in this (fresh)
// process: what netsim and live.New pay on a cold start.
func childMACPrebuild() error {
	m := mac.NewModel(mac.DefaultParams())
	c := measure(func() { m.Prebuild(workers()) })
	if built := int64(counter("mac_cells_built_total")); built != macGrid() {
		return fmt.Errorf("prebuild built %d cells, grid has %d", built, macGrid())
	}
	return json.NewEncoder(os.Stdout).Encode(macPrebuild{
		Seconds: c.Wall.Seconds(), Allocs: float64(c.Mallocs), AllocMB: float64(c.Bytes) / 1e6,
	})
}

// childMACCells times every grid cell's micro-simulation on its own, in
// this (fresh) process. The grid is private to mac, so the sweep probes
// operating points until the registry says every cell has been built; a
// probe that builds a cell is that cell's build time.
func childMACCells() error {
	m := mac.NewModel(mac.DefaultParams())
	var cells []float64
	built := counter("mac_cells_built_total")
	for u := 0.0; u <= 1.0; u += 0.01 {
		for e := -6.0; e <= 0; e += 0.2 {
			start := time.Now()
			sink += float64(m.QuantileUplink(u, math.Pow(10, e), 0.5))
			d := time.Since(start)
			if now := counter("mac_cells_built_total"); now != built {
				built = now
				cells = append(cells, float64(d.Microseconds())/1000)
			}
		}
	}
	if int64(len(cells)) != macGrid() {
		return fmt.Errorf("sweep built %d cells, grid has %d", len(cells), macGrid())
	}
	return json.NewEncoder(os.Stdout).Encode(macPrebuild{CellMS: cells})
}

func microMACSample() float64 {
	m := mac.NewModel(mac.DefaultParams())
	r := dist.NewRand(1)
	m.SampleUplink(0.5, 1e-3, r) // builds the cell if this process has not
	return nsPerOp(func() { sink += float64(m.SampleUplink(0.5, 1e-3, r)) })
}

func microMAC(res *Result) error {
	var pre, cells macPrebuild
	if err := runChild(&pre, "mac-prebuild"); err != nil {
		return err
	}
	if err := runChild(&cells, "mac-cells"); err != nil {
		return err
	}
	sort.Float64s(cells.CellMS)
	res.set("mac.prebuild_s", pre.Seconds)
	res.set("mac.prebuild_allocs", pre.Allocs)
	res.set("mac.prebuild_alloc_mb", pre.AllocMB)
	res.set("mac.cell_build_ms_p50", percentile(cells.CellMS, 50))
	res.set("mac.cell_build_ms_max", cells.CellMS[len(cells.CellMS)-1])
	res.set("mac.sample_ns", microMACSample())
	return nil
}

// microWorkload times the generator exactly as the simulator seeds it:
// population from the "population" fork, each customer-day from its own.
func microWorkload(res *Result, customers int) error {
	root := dist.NewRand(deploymentSeed)
	intents := 0
	var (
		pop []*workload.Customer
		err error
	)
	c := measure(func() {
		pop, err = workload.BuildPopulation(customers, root.Fork("population"))
		for _, cu := range pop {
			intents += len(workload.GenerateDay(cu, 0, root.ForkN("day", uint64(cu.ID)*1024)))
		}
	})
	if err != nil {
		return fmt.Errorf("workload.BuildPopulation: %w", err)
	}
	res.set("workload.intents", float64(intents))
	res.set("workload.generate_ns_per_intent", float64(c.Wall.Nanoseconds())/float64(intents))
	src := workload.NewSource(pop, root)
	first := measure(func() { sink += float64(src.Next().Start) })
	res.set("workload.source_day_s", first.Wall.Seconds())
	return nil
}

// microPath times the three path samplers pass B calls per flow.
func microPath(res *Result) {
	r := dist.NewRand(1)
	ch := phy.ChannelFor(geo.Countries()[0])
	res.set("phy.channel_fer_ns", nsPerOp(func() { sink += ch.FrameErrorRate(0.3) }))
	pm := pepmodel.Default()
	res.set("pepmodel.setup_delay_ns", nsPerOp(func() { sink += float64(pm.SetupDelay(0.5, r)) }))
	tb := shaper.ForPlan(shaper.Plans()[0])
	now := time.Duration(0)
	res.set("shaper.take_ns", nsPerOp(func() {
		now += time.Millisecond
		sink += float64(tb.Take(1500, now))
	}))
}

// microTracker feeds the flow tracker a synthetic TCP segment stream (ten
// segments per flow, records streamed out) and reports the cost of one
// Observe.
func microTracker(res *Result) {
	emitted := 0
	tr := tstat.NewTracker(tstat.Config{OnFlow: func(tstat.FlowRecord) { emitted++ }})
	server := packet.Endpoint{Addr: netip.AddrFrom4([4]byte{93, 184, 216, 34}), Port: 443}
	flow := uint32(0)
	segments := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		flow++
		client := packet.Endpoint{
			Addr: netip.AddrFrom4([4]byte{10, byte(flow >> 16), byte(flow >> 8), byte(flow)}),
			Port: uint16(1024 + flow%60000),
		}
		c2s := packet.FiveTuple{Proto: packet.ProtoTCP, Src: client, Dst: server}
		s2c := c2s.Reverse()
		at := time.Duration(flow) * 10 * time.Millisecond
		ms := time.Millisecond
		for _, s := range []struct {
			tuple packet.FiveTuple
			ev    tstat.SegmentEvent
		}{
			{c2s, tstat.SegmentEvent{T: at, Flags: packet.FlagSYN, Packets: 1}},
			{s2c, tstat.SegmentEvent{T: at + 20*ms, Flags: packet.FlagSYN | packet.FlagACK, Ack: 1, Packets: 1}},
			{c2s, tstat.SegmentEvent{T: at + 21*ms, Flags: packet.FlagACK, Ack: 1, Packets: 1}},
			{c2s, tstat.SegmentEvent{T: at + 22*ms, Flags: packet.FlagACK | packet.FlagPSH, Seq: 1, Payload: 300, WireLen: 340, Packets: 1}},
			{s2c, tstat.SegmentEvent{T: at + 42*ms, Flags: packet.FlagACK, Ack: 301, Packets: 1}},
			{s2c, tstat.SegmentEvent{T: at + 43*ms, Flags: packet.FlagACK, Seq: 1, Payload: 14000, WireLen: 14400, Packets: 10}},
			{c2s, tstat.SegmentEvent{T: at + 600*ms, Flags: packet.FlagACK, Ack: 14001, Packets: 1}},
			{s2c, tstat.SegmentEvent{T: at + 601*ms, Flags: packet.FlagACK, Seq: 14001, Payload: 28000, WireLen: 28800, Packets: 20}},
			{c2s, tstat.SegmentEvent{T: at + 1200*ms, Flags: packet.FlagFIN | packet.FlagACK, Seq: 301, Ack: 42001, Packets: 1}},
			{s2c, tstat.SegmentEvent{T: at + 1220*ms, Flags: packet.FlagFIN | packet.FlagACK, Seq: 42001, Ack: 302, Packets: 1}},
		} {
			tr.Observe(s.tuple, s.ev)
			segments++
		}
	}
	elapsed := time.Since(start)
	tr.Flush()
	sink += float64(emitted)
	res.set("tstat.observe_ns_per_segment", float64(elapsed.Nanoseconds())/float64(segments))
}

// microSortMerge splits the rep's flow log P ways, shuffles each part,
// and times what pass B's tail does: sort every part, k-way merge them.
// The merge must reproduce the log.
func microSortMerge(res *Result, out *netsim.Output, seed uint64) error {
	p := workers()
	parts := make([][]tstat.FlowRecord, p)
	for i, f := range out.Flows {
		parts[i%p] = append(parts[i%p], f)
	}
	r := dist.NewRand(seed)
	for _, part := range parts {
		r.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	sortCost := measure(func() {
		for _, part := range parts {
			tstat.SortFlows(part)
		}
	})
	var merged []tstat.FlowRecord
	mergeCost := measure(func() { merged = tstat.MergeFlows(parts) })
	if len(merged) != len(out.Flows) {
		return fmt.Errorf("MergeFlows returned %d of %d flows", len(merged), len(out.Flows))
	}
	for i := range merged {
		if tstat.CompareFlows(&merged[i], &out.Flows[i]) != 0 {
			return fmt.Errorf("sort+merge of the shuffled log differs from the log at row %d", i)
		}
	}
	res.set("tstat.sort_s", sortCost.Wall.Seconds())
	res.set("tstat.merge_s", mergeCost.Wall.Seconds())
	return nil
}

// microLiveProcess drives the live synthesis worker closed-loop over the
// intent source — no clock, no queues — which bounds what one shard of the
// daemon can synthesize and, set against netsim.pass_b_ns_per_flow, is the
// gap between the engine's two drivers. On the live workloads the records
// it emits then feed the rolling-window aggregator for its per-record cost.
func microLiveProcess(res *Result) error {
	sim, err := netsim.NewLiveSim(netsim.Config{Customers: liveCustomers, Seed: deploymentSeed})
	if err != nil {
		return err
	}
	var recs []tstat.FlowRecord
	w := sim.NewWorker(func(r tstat.FlowRecord) { recs = append(recs, r) }, func(tstat.DNSRecord) {})
	src := workload.NewSource(sim.Customers(), sim.Root())
	src.Next() // generates and sorts day 0
	const n = 50000
	var perr error
	c := measure(func() {
		for i := 0; i < n; i++ {
			fi := src.Next()
			if err := w.Process(fi, uint64(i+1), nil); err != nil && perr == nil {
				perr = err
			}
			w.Advance(fi.Start)
		}
		w.Flush()
	})
	if perr != nil {
		return fmt.Errorf("LiveWorker.Process: %w", perr)
	}
	res.set("netsim.live_process_ns_per_flow", float64(c.Wall.Nanoseconds())/n)
	if res.Workload != wlLiveSteady && res.Workload != wlLiveOverload {
		return nil
	}
	prefixes, err := sim.CountryPrefixes()
	if err != nil {
		return err
	}
	a := live.NewAnalytics(0, 0, 0, prefixes, nil)
	add := measure(func() {
		for i := range recs {
			a.AddFlow(recs[i])
		}
	})
	res.set("live.analytics_add_ns", float64(add.Wall.Nanoseconds())/float64(len(recs)))
	return nil
}

// microLive times one push+pop through a pipeline edge.
func microLive(res *Result) error {
	reg := obs.NewRegistry()
	q := live.NewQueue[int](1024, live.Block, live.QueueMetrics{
		Depth: reg.Gauge("depth", "", ""), HighWater: reg.Gauge("highwater", "", ""),
		Shed: reg.Counter("shed", "", ""), Pushed: reg.Counter("pushed", "", ""),
	}, nil)
	ctx := context.Background()
	ok := true
	ns := nsPerOp(func() {
		pushed := q.Push(ctx, 1, nil)
		_, popped := q.Pop(ctx, nil)
		ok = ok && pushed && popped
	})
	if !ok {
		return fmt.Errorf("live.Queue lost an item in a push+pop loop")
	}
	res.set("live.queue_pushpop_ns", ns)
	return nil
}

// microTunnel moves 8 MB over one tunnel stream across a loss-free 1 ms
// in-process link (no TCP, no PEP), and times linkemu alone on a
// zero-delay pair.
func microTunnel(res *Result, seed uint64) error {
	const total = 8 << 20
	link := linkemu.Link{Delay: time.Millisecond}
	a, b := linkemu.NewPair(link, link, seed)
	cfg := pepTunnel
	client, server := tunnel.New(a, cfg, true), tunnel.New(b, cfg, false)
	defer client.Close()
	defer server.Close()

	recvd := make(chan error, 1) // one send, by the receiver below
	frames := counter("tunnel_frames_sent_total")
	begin := readUsage()
	go func() {
		st, _, err := server.Accept()
		if err != nil {
			recvd <- err
			return
		}
		buf := make([]byte, 64<<10)
		for got := 0; got < total; {
			n, err := st.Read(buf)
			got += n
			if err != nil {
				recvd <- fmt.Errorf("tunnel stream read after %d bytes: %w", got, err)
				return
			}
		}
		recvd <- st.Close()
	}()
	st, err := client.OpenStream("bench")
	if err != nil {
		return fmt.Errorf("tunnel.OpenStream: %w", err)
	}
	chunk := make([]byte, 32<<10)
	for sent := 0; sent < total; sent += len(chunk) {
		if _, err := st.Write(chunk); err != nil {
			return fmt.Errorf("tunnel stream write: %w", err)
		}
	}
	if err := <-recvd; err != nil {
		return err
	}
	c := readUsage().since(begin)
	if err := st.Close(); err != nil {
		return fmt.Errorf("tunnel stream close: %w", err)
	}
	res.set("tunnel.stream_mb_per_s", total/1e6/c.Wall.Seconds())
	res.set("tunnel.cpu_us_per_frame", float64(c.CPU.Microseconds())/(counter("tunnel_frames_sent_total")-frames))

	x, y := linkemu.NewPair(linkemu.Link{}, linkemu.Link{}, seed)
	defer x.Close()
	defer y.Close()
	payload := make([]byte, 1200)
	var lerr error
	ns := nsPerOp(func() {
		if err := x.WriteDatagram(payload); err != nil && lerr == nil {
			lerr = err
		}
		if _, err := y.ReadDatagram(); err != nil && lerr == nil {
			lerr = err
		}
	})
	if lerr != nil {
		return fmt.Errorf("linkemu: %w", lerr)
	}
	res.set("linkemu.ns_per_datagram", ns)
	return nil
}
