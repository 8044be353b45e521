package netsim

import (
	"bytes"
	"fmt"
	"io"

	"satwatch/internal/packet"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// The capture's sample: flows are drawn 1 in pcapSampleN by identity
// (trace.Sampled over customer, day and intent index), so the sample does
// not depend on the worker count, and intents above pcapMaxBytes (down
// plus up) are skipped, which keeps the file demo-sized.
const (
	pcapSampleN  = 16
	pcapMaxBytes = 64 << 10
)

// WritePcap writes a capture of up to flows of the run's own flows to w
// and returns the packets written and the flows sampled. It re-synthesizes
// customers in ID order, each from day 0 exactly as the run did, and
// renders every event of a sampled flow (its DNS lookup included) into
// wire packets through tstat.Render, with the customer's address
// Crypto-PAn-anonymized as in the logs. Packets are stamped Epoch plus
// their simulated time, so replaying the capture through the probe
// reproduces the sampled flows' log rows (DESIGN.md, "Packet path vs
// in-process path").
//
// The re-synthesis runs the same models as the run, so their metrics count
// the sampled customers a second time: dump metrics before calling this.
func (o *Output) WritePcap(w io.Writer, flows int) (packets, sampled int, err error) {
	return o.writePcap(w, flows, func(customer, day, index int, fi *workload.FlowIntent) bool {
		return trace.Sampled(customer, day, index, pcapSampleN) && fi.Down+fi.Up <= pcapMaxBytes
	})
}

// pcapPick reports whether the intent at (customer, day, index) is sampled.
type pcapPick func(customer, day, index int, fi *workload.FlowIntent) bool

// writePcap is WritePcap over the intents pick samples.
func (o *Output) writePcap(w io.Writer, flows int, pick pcapPick) (packets, sampled int, err error) {
	if o.dep == nil {
		return 0, 0, fmt.Errorf("netsim: output has no run to sample")
	}
	var capture tstat.Capture
	for _, c := range o.dep.customers {
		if sampled == flows {
			break
		}
		n, err := o.sampleCustomer(c, flows-sampled, pick, &capture)
		sampled += n
		if err != nil {
			return 0, sampled, err
		}
	}
	packets, err = capture.WritePcap(w, o.Epoch)
	return packets, sampled, err
}

// sampleCustomer re-synthesizes customer c, from day 0 as the run did,
// until it has captured want sampled flows or its window ends, and returns
// how many it captured. A synthesis error or panic, which the run
// recovered into Stats.Errors, is returned.
func (o *Output) sampleCustomer(c *workload.Customer, want int, pick pcapPick, capture *tstat.Capture) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("netsim: sample customer %d: panic: %v", c.ID, p)
		}
	}()
	anon := o.dep.anon.MustAnonymize(c.Addr)
	syn := newSynthesizer(o.cfg, o.dep, o.mod, o.Faults, tstat.NewTracker(tstat.Config{}))
	tap := func(tuple packet.FiveTuple, ev tstat.SegmentEvent) {
		// The synthesizer reuses its message buffers; the capture keeps
		// the event.
		ev.AppData = bytes.Clone(ev.AppData)
		if tuple.Src.Addr == c.Addr {
			tuple.Src.Addr = anon
		} else {
			tuple.Dst.Addr = anon
		}
		capture.Add(tuple, ev)
	}
	for day := 0; day < o.cfg.Days; day++ {
		key := uint64(c.ID)*1024 + uint64(day)
		intents := workload.GenerateDay(c, day, o.dep.root.ForkN("day", key))
		sr := o.dep.root.ForkN("synth", key)
		for i := range intents {
			fi := &intents[i]
			sampled := pick(c.ID, day, i, fi)
			syn.tap = nil
			if sampled {
				syn.tap = tap
				n++
			}
			if err := syn.flow(fi, sr, nil); err != nil {
				return n, fmt.Errorf("netsim: sample customer %d day %d flow %d: %w", c.ID, day, i, err)
			}
			if sampled && n == want {
				return n, nil
			}
		}
	}
	return n, nil
}
