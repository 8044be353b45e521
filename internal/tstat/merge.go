package tstat

import "sort"

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
func SortFlows(flows []FlowRecord) {
	sort.Slice(flows, func(i, j int) bool {
		return CompareFlows(&flows[i], &flows[j]) < 0
	})
}

// SortDNS orders DNS records in the canonical total order (CompareDNS).
func SortDNS(dns []DNSRecord) {
	sort.Slice(dns, func(i, j int) bool {
		return CompareDNS(&dns[i], &dns[j]) < 0
	})
}

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

// mergeRuns k-way merges sorted runs under cmp, which must be the total
// order each run was sorted in. A single non-empty run is returned as is.
func mergeRuns[T any](runs [][]T, cmp func(a, b *T) int) []T {
	total := 0
	h := &runHeap[T]{cmp: cmp}
	for _, r := range runs {
		if len(r) > 0 {
			h.idx = append(h.idx, len(h.runs))
			h.runs = append(h.runs, r)
			total += len(r)
		}
	}
	if len(h.runs) == 1 {
		return h.runs[0]
	}
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]T, 0, total)
	for len(h.idx) > 0 {
		i := h.idx[0]
		out = append(out, h.runs[i][0])
		if h.runs[i] = h.runs[i][1:]; len(h.runs[i]) == 0 {
			last := len(h.idx) - 1
			h.idx[0] = h.idx[last]
			h.idx = h.idx[:last]
		}
		h.down(0)
	}
	return out
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
