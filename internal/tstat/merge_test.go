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

// keyed is a record whose order looks at key alone, so records that
// compare equal still say which run and position they came from.
type keyed struct{ key, run, pos int }

func cmpKeyed(a, b *keyed) int { return cmpInt(int64(a.key), int64(b.key)) }

func cmpKeyedValues(a, b keyed) int { return cmpKeyed(&a, &b) }

// keyedRuns builds one sorted run per size, with keys drawn from
// [0, keys) and key hot taking about two records in three.
func keyedRuns(sizes []int, keys, hot int) [][]keyed {
	state := uint64(0x853c49e6748fea9b)
	runs := make([][]keyed, len(sizes))
	for r, n := range sizes {
		for i := 0; i < n; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			k := int(state>>33) % keys
			if (state>>20)%3 != 0 {
				k = hot
			}
			runs[r] = append(runs[r], keyed{key: k, run: r})
		}
		slices.SortFunc(runs[r], cmpKeyedValues)
		for i := range runs[r] {
			runs[r][i].pos = i
		}
	}
	return runs
}

// TestMergeRangesKeepRunOrder: merging by key range on p goroutines
// gives what one serial merge gives, equal keys ordered by run index and
// then by position in their run, whatever p: with range boundaries
// inside a run of equal keys (the hot key holds most samples, so the
// splitters fall on it), with p above the number of non-empty runs, and
// with empty runs between full ones.
func TestMergeRangesKeepRunOrder(t *testing.T) {
	cases := map[string][]int{
		"hot key across many runs": {900, 40, 0, 700, 1, 333, 0, 512},
		"two runs":                 {1500, 1200},
		"empty runs around two":    {0, 0, 300, 0, 5, 0},
		"one-record runs":          {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	}
	for name, sizes := range cases {
		runs := keyedRuns(sizes, 40, 17)
		var want []keyed
		for _, r := range runs {
			want = append(want, r...)
		}
		slices.SortStableFunc(want, cmpKeyedValues)
		for _, p := range []int{1, 2, 3, 8} {
			if got := mergeRunsP(runs, cmpKeyed, p); !slices.Equal(got, want) {
				t.Errorf("%s, p=%d: merge differs from the stable sort of the runs in order", name, p)
			}
		}
	}
}

// TestMergeRangesPassOneRunThrough: a single non-empty run comes back as
// the same slice at any p, and no runs merge to nothing.
func TestMergeRangesPassOneRunThrough(t *testing.T) {
	run := keyedRuns([]int{50}, 5, 2)[0]
	for _, p := range []int{1, 2, 3, 8} {
		if got := mergeRunsP([][]keyed{nil, run, {}}, cmpKeyed, p); len(got) != len(run) || &got[0] != &run[0] {
			t.Errorf("p=%d: a single non-empty run was not passed through", p)
		}
		if got := mergeRunsP([][]keyed{nil, {}}, cmpKeyed, p); len(got) != 0 {
			t.Errorf("p=%d: empty runs merged to %d records", p, len(got))
		}
	}
}

// TestMergeFlowRangesMatchGlobalSort is TestMergeFlowsMatchesGlobalSort
// at each p, for flow and DNS logs alike.
func TestMergeFlowRangesMatchGlobalSort(t *testing.T) {
	flows, dns := synthFlows(2000), synthDNS(2000)
	wantFlows, wantDNS := slices.Clone(flows), slices.Clone(dns)
	SortFlows(wantFlows)
	SortDNS(wantDNS)
	for _, p := range []int{2, 3, 8} {
		for _, k := range mergeKs {
			for shape, runs := range mergeShapes(flows, k, SortFlows) {
				if got := mergeRunsP(runs, CompareFlows, p); !reflect.DeepEqual(got, wantFlows) {
					t.Fatalf("p=%d: flow merge of %d %s runs differs from global sort", p, k, shape)
				}
			}
			for shape, runs := range mergeShapes(dns, k, SortDNS) {
				if got := mergeRunsP(runs, CompareDNS, p); !reflect.DeepEqual(got, wantDNS) {
					t.Fatalf("p=%d: DNS merge of %d %s runs differs from global sort", p, k, shape)
				}
			}
		}
	}
}
