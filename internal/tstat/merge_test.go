package tstat

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"
)

// synthFlows builds a deterministic pseudo-random record set with plenty
// of ties on the leading sort keys, exercising the deep tie-breaks.
func synthFlows(n int) []FlowRecord {
	state := uint64(0x9e3779b97f4a7c15)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	out := make([]FlowRecord, n)
	for i := range out {
		out[i] = FlowRecord{
			Start:     time.Duration(next(50)) * time.Second, // dense → ties
			Client:    netip.AddrFrom4([4]byte{10, byte(next(4)), 0, byte(next(8))}),
			CPort:     uint16(1024 + next(16)),
			Server:    netip.AddrFrom4([4]byte{93, 184, byte(next(3)), 34}),
			SPort:     443,
			Proto:     Protocol(next(5)),
			Domain:    []string{"", "a.example", "b.example"}[next(3)],
			End:       time.Duration(next(100)) * time.Second,
			BytesDown: int64(next(1000)),
			SatRTT:    time.Duration(next(3)) * 275 * time.Millisecond,
		}
	}
	return out
}

// mergeKs are the run counts the merge tests partition into: a worker's
// log, a few workers, and the tens to hundreds of log chunks a batch run
// merges.
var mergeKs = []int{1, 2, 3, 7, 64, 257}

// mergeShapes cuts recs into k runs three ways: round-robin (with k = 257
// most runs hold one record), chunk-shaped (consecutive cuts of one size
// and a short last one, as a worker's log chunks, with an empty run after
// each) and uneven (run sizes cycle 0..6, the last run takes the rest).
// Every run is a fresh slice, sorted by sortRun.
func mergeShapes[T any](recs []T, k int, sortRun func([]T)) map[string][][]T {
	shapes := map[string][][]T{}
	rr := make([][]T, k)
	for i, r := range recs {
		rr[i%k] = append(rr[i%k], r)
	}
	shapes["round-robin"] = rr
	var chunks [][]T
	size := (len(recs) + k - 1) / k
	for lo := 0; lo < len(recs); lo += size {
		chunks = append(chunks, slices.Clone(recs[lo:min(lo+size, len(recs))]), nil)
	}
	shapes["chunks"] = chunks
	uneven := make([][]T, k)
	lo := 0
	for i := range uneven {
		hi := min(lo+i%7, len(recs))
		if i == k-1 {
			hi = len(recs)
		}
		uneven[i] = slices.Clone(recs[lo:hi])
		lo = hi
	}
	shapes["uneven"] = uneven
	for _, runs := range shapes {
		for _, r := range runs {
			sortRun(r)
		}
	}
	return shapes
}

// TestMergeFlowsMatchesGlobalSort: k-way merging per-run sorted slices
// must be indistinguishable from concatenating and sorting globally, for
// any partitioning.
func TestMergeFlowsMatchesGlobalSort(t *testing.T) {
	all := synthFlows(500)
	want := slices.Clone(all)
	SortFlows(want)

	for _, k := range mergeKs {
		for shape, runs := range mergeShapes(all, k, SortFlows) {
			if got := MergeFlows(runs); !reflect.DeepEqual(got, want) {
				t.Fatalf("merge of %d %s runs differs from global sort", k, shape)
			}
		}
	}
}

func TestMergeFlowsEdgeCases(t *testing.T) {
	if got := MergeFlows(nil); len(got) != 0 {
		t.Fatalf("merge of no runs returned %d records", len(got))
	}
	if got := MergeFlows([][]FlowRecord{nil, {}, nil}); len(got) != 0 {
		t.Fatalf("merge of empty runs returned %d records", len(got))
	}
	one := synthFlows(10)
	SortFlows(one)
	if got := MergeFlows([][]FlowRecord{nil, one}); !reflect.DeepEqual(got, one) {
		t.Fatal("single non-empty run not passed through")
	}
}

// synthDNS is synthFlows for DNS records: dense times, few clients and
// names, so the deep tie-breaks run and some records repeat exactly.
func synthDNS(n int) []DNSRecord {
	state := uint64(0x2545f4914f6cdd1d)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	out := make([]DNSRecord, n)
	for i := range out {
		out[i] = DNSRecord{
			T:            time.Duration(next(40)) * time.Second,
			Client:       netip.AddrFrom4([4]byte{10, 0, 0, byte(next(4))}),
			Query:        []string{"a.example", "b.example", "z.example"}[next(3)],
			Resolver:     netip.AddrFrom4([4]byte{9, 9, 9, byte(next(2))}),
			RCode:        uint8(next(2) * 3),
			Answer:       netip.AddrFrom4([4]byte{93, 184, 0, byte(next(3))}),
			ResponseTime: time.Duration(next(3)) * 10 * time.Millisecond,
		}
	}
	return out
}

func TestMergeDNSMatchesGlobalSort(t *testing.T) {
	all := synthDNS(500)
	want := slices.Clone(all)
	SortDNS(want)

	for _, k := range mergeKs {
		for shape, runs := range mergeShapes(all, k, SortDNS) {
			if got := MergeDNS(runs); !reflect.DeepEqual(got, want) {
				t.Fatalf("DNS merge of %d %s runs differs from global sort", k, shape)
			}
		}
	}
}

// TestCompareFlowsIsTotalOrder spot-checks antisymmetry and that equal
// comparison implies deep equality (the property the simulator's
// partition-independence relies on).
func TestCompareFlowsIsTotalOrder(t *testing.T) {
	recs := synthFlows(200)
	for i := range recs {
		for j := range recs {
			c1, c2 := CompareFlows(&recs[i], &recs[j]), CompareFlows(&recs[j], &recs[i])
			if c1 != -c2 {
				t.Fatalf("antisymmetry violated at (%d,%d): %d vs %d", i, j, c1, c2)
			}
			if c1 == 0 && !reflect.DeepEqual(recs[i], recs[j]) {
				t.Fatalf("records %d and %d compare equal but differ", i, j)
			}
		}
	}
}
