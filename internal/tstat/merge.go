package tstat

import (
	"runtime"
	"slices"
	"sort"
	"sync"
)

// This file defines the canonical total order over records and the k-way
// merge the simulator uses to combine its workers' log chunks. The
// comparators cover every serialized field, so any two records that
// compare equal are byte-identical in the TSV output — which is what
// makes the merged log independent of how records were partitioned into
// runs.

// CompareFlows is the canonical total order over flow records: start
// time, then endpoints (the order SortFlows always used), then every
// remaining serialized field as a tie-break.
func CompareFlows(a, b *FlowRecord) int {
	switch {
	case a.Start != b.Start:
		return cmpDur(a.Start, b.Start)
	}
	if c := a.Client.Compare(b.Client); c != 0 {
		return c
	}
	if a.CPort != b.CPort {
		return cmpInt(int64(a.CPort), int64(b.CPort))
	}
	if c := a.Server.Compare(b.Server); c != 0 {
		return c
	}
	if a.SPort != b.SPort {
		return cmpInt(int64(a.SPort), int64(b.SPort))
	}
	// Tie-breaks: distinct records sharing a 5-tuple and start time.
	if a.Proto != b.Proto {
		return cmpInt(int64(a.Proto), int64(b.Proto))
	}
	if a.Domain != b.Domain {
		return cmpStr(a.Domain, b.Domain)
	}
	if a.End != b.End {
		return cmpDur(a.End, b.End)
	}
	if a.BytesUp != b.BytesUp {
		return cmpInt(a.BytesUp, b.BytesUp)
	}
	if a.BytesDown != b.BytesDown {
		return cmpInt(a.BytesDown, b.BytesDown)
	}
	if a.PktsUp != b.PktsUp {
		return cmpInt(a.PktsUp, b.PktsUp)
	}
	if a.PktsDown != b.PktsDown {
		return cmpInt(a.PktsDown, b.PktsDown)
	}
	if a.GroundRTT.Samples != b.GroundRTT.Samples {
		return cmpInt(int64(a.GroundRTT.Samples), int64(b.GroundRTT.Samples))
	}
	if a.GroundRTT.Min != b.GroundRTT.Min {
		return cmpDur(a.GroundRTT.Min, b.GroundRTT.Min)
	}
	if a.GroundRTT.Avg != b.GroundRTT.Avg {
		return cmpDur(a.GroundRTT.Avg, b.GroundRTT.Avg)
	}
	if a.GroundRTT.Max != b.GroundRTT.Max {
		return cmpDur(a.GroundRTT.Max, b.GroundRTT.Max)
	}
	if a.GroundRTT.Std != b.GroundRTT.Std {
		return cmpDur(a.GroundRTT.Std, b.GroundRTT.Std)
	}
	if a.SatRTT != b.SatRTT {
		return cmpDur(a.SatRTT, b.SatRTT)
	}
	if len(a.First10) != len(b.First10) {
		return cmpInt(int64(len(a.First10)), int64(len(b.First10)))
	}
	for i := range a.First10 {
		if a.First10[i] != b.First10[i] {
			return cmpDur(a.First10[i], b.First10[i])
		}
	}
	return 0
}

// CompareDNS is the canonical total order over DNS records.
func CompareDNS(a, b *DNSRecord) int {
	if a.T != b.T {
		return cmpDur(a.T, b.T)
	}
	if c := a.Client.Compare(b.Client); c != 0 {
		return c
	}
	if a.Query != b.Query {
		return cmpStr(a.Query, b.Query)
	}
	if c := a.Resolver.Compare(b.Resolver); c != 0 {
		return c
	}
	if a.RCode != b.RCode {
		return cmpInt(int64(a.RCode), int64(b.RCode))
	}
	if c := a.Answer.Compare(b.Answer); c != 0 {
		return c
	}
	return cmpDur(a.ResponseTime, b.ResponseTime)
}

func cmpInt(a, b int64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

func cmpDur[T ~int64](a, b T) int { return cmpInt(int64(a), int64(b)) }

func cmpStr(a, b string) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// SortFlows orders flow records in the canonical total order (start time,
// then endpoints, then every remaining field — see CompareFlows), so logs
// sorted or merged from any partitioning compare byte-identically.
func SortFlows(flows []FlowRecord) { sort.Sort(flowOrder(flows)) }

// SortDNS orders DNS records in the canonical total order (CompareDNS).
func SortDNS(dns []DNSRecord) { sort.Sort(dnsOrder(dns)) }

// flowOrder and dnsOrder sort in place through typed swaps: sort.Slice
// swaps through reflection, and slices.SortFunc hands its comparator
// record copies (each slower by a fifth or more on a 200 k-record log).
type (
	flowOrder []FlowRecord
	dnsOrder  []DNSRecord
)

func (s flowOrder) Len() int           { return len(s) }
func (s flowOrder) Less(i, j int) bool { return CompareFlows(&s[i], &s[j]) < 0 }
func (s flowOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s dnsOrder) Len() int            { return len(s) }
func (s dnsOrder) Less(i, j int) bool  { return CompareDNS(&s[i], &s[j]) < 0 }
func (s dnsOrder) Swap(i, j int)       { s[i], s[j] = s[j], s[i] }

// runHeap is a binary min-heap over the heads of k sorted runs: idx
// holds the index of every run not yet drained, ordered by the run's head
// record. Fully equal heads order by run index, which keeps the merge
// deterministic (the records are interchangeable).
type runHeap[T any] struct {
	runs [][]T // remaining tail of each run
	idx  []int
	cmp  func(a, b *T) int
}

// less orders heap positions i and j.
func (h *runHeap[T]) less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if c := h.cmp(&h.runs[a][0], &h.runs[b][0]); c != 0 {
		return c < 0
	}
	return a < b
}

// down restores the heap order below position i.
func (h *runHeap[T]) down(i int) {
	n := len(h.idx)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}

// parallelMergeMin is the smallest merge cut into key ranges: below it a
// goroutine per range costs more than it saves.
const parallelMergeMin = 1 << 14

// samplesPerRange is how many sampled keys each range's splitter is
// chosen from.
const samplesPerRange = 64

// mergeRuns k-way merges sorted runs under cmp, which must be the total
// order each run was sorted in, in GOMAXPROCS key ranges at once. A
// single non-empty run is returned as is.
func mergeRuns[T any](runs [][]T, cmp func(a, b *T) int) []T {
	p, total := runtime.GOMAXPROCS(0), 0
	for _, r := range runs {
		total += len(r)
	}
	if total < parallelMergeMin {
		p = 1
	}
	return mergeRunsP(runs, cmp, p)
}

// mergeRunsP is mergeRuns cut into at most p key ranges. The splitters
// are keys sampled from the runs; in every run, a range starts at the
// first record not below its splitter. Records that compare equal
// therefore land in one range, where the merge orders them by run index
// as a serial merge does, and the ranges follow each other in key order.
// Each range is merged on its own goroutine straight into its slice of
// the output.
func mergeRunsP[T any](runs [][]T, cmp func(a, b *T) int, p int) []T {
	var live [][]T
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	out := make([]T, total)
	if p < 2 || total == 0 {
		mergeInto(out, live, cmp)
		return out
	}
	splitters := sampleSplitters(live, cmp, p, total)
	// cuts[i] is where the next range starts in run i.
	cuts := make([]int, len(live))
	var wg sync.WaitGroup
	off := 0
	for r := 0; r <= len(splitters); r++ {
		sub := make([][]T, 0, len(live))
		n := 0
		for i, run := range live {
			lo, hi := cuts[i], len(run)
			if r < len(splitters) {
				s := splitters[r]
				hi = lo + sort.Search(hi-lo, func(j int) bool { return cmp(&run[lo+j], s) >= 0 })
			}
			if hi > lo {
				sub = append(sub, run[lo:hi])
				n += hi - lo
			}
			cuts[i] = hi
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(dst []T) {
			defer wg.Done()
			mergeInto(dst, sub, cmp)
		}(out[off : off+n])
		off += n
	}
	wg.Wait()
	return out
}

// sampleSplitters returns up to p-1 keys that cut the runs' records into
// p ranges of about equal size. It takes every stride-th record of the
// runs laid end to end, sorts the sample and picks its p-quantiles.
func sampleSplitters[T any](runs [][]T, cmp func(a, b *T) int, p, total int) []*T {
	stride := max(total/(p*samplesPerRange), 1)
	sample := make([]*T, 0, total/stride+1)
	next := stride / 2 // offset of the next sample in the current run
	for _, run := range runs {
		for ; next < len(run); next += stride {
			sample = append(sample, &run[next])
		}
		next -= len(run)
	}
	slices.SortFunc(sample, cmp)
	splitters := make([]*T, 0, p-1)
	for r := 1; r < p; r++ {
		splitters = append(splitters, sample[r*len(sample)/p])
	}
	return splitters
}

// mergeInto k-way merges the sorted runs into dst, which holds exactly
// their records.
func mergeInto[T any](dst []T, runs [][]T, cmp func(a, b *T) int) {
	h := &runHeap[T]{runs: runs, idx: make([]int, len(runs)), cmp: cmp}
	for i := range h.idx {
		h.idx[i] = i
	}
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for j := range dst {
		i := h.idx[0]
		dst[j] = h.runs[i][0]
		if h.runs[i] = h.runs[i][1:]; len(h.runs[i]) == 0 {
			last := len(h.idx) - 1
			h.idx[0] = h.idx[last]
			h.idx = h.idx[:last]
		}
		h.down(0)
	}
}

// MergeFlows k-way merges sorted runs of flow records (the simulator
// passes every worker's log chunks), each already sorted in CompareFlows
// order (see SortFlows), into one globally sorted log. The result is
// identical to concatenating and sorting, at O(N log k) with no re-sort of
// the whole record set.
func MergeFlows(runs [][]FlowRecord) []FlowRecord {
	return mergeRuns(runs, CompareFlows)
}

// MergeDNS k-way merges sorted runs of DNS records, each in CompareDNS
// order.
func MergeDNS(runs [][]DNSRecord) []DNSRecord {
	return mergeRuns(runs, CompareDNS)
}
