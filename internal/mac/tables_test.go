package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// gridDigest is the sha256 over the nine table values of every cell of
// m's grid, in (utilization, FER) index order.
func gridDigest(m *Model) string {
	h := sha256.New()
	var b [8]byte
	for ui := range m.utils {
		for fi := range m.fers {
			e := m.cell(ui, fi)
			for _, q := range tableLevels {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Quantile(q)))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCellTablesGolden pins the distilled access-delay tables at full
// SimFrames: the slot simulator's contract is its RNG draw sequence and
// event order, and these digests are what that contract produces. They
// were written by the pointer/closure simulator and the full-sort distill
// this package started with; never regenerate them to make a rewrite pass.
// Seed+42 and Seed+7 are the reseeds the repo benchmark drives.
func TestCellTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 270 full-size cells")
	}
	cases := []struct {
		name   string
		params func() Params
		reseed uint64
		want   string
	}{
		{"geo/stock", DefaultParams, 0, "869667f300426394115271cfdb1316662395743d2d7a12a6062852c777a3316d"},
		{"geo/seed42", DefaultParams, 42, "1e2760c31e7e148934a3a154ce7d00042f7171f4ed07ebdc336fc6400e348703"},
		{"geo/seed7", DefaultParams, 7, "6bace19068c9c1ddf5971a24d6ba71974939e912e55270e8d73373f25466077a"},
		{"leo/stock", LEOParams, 0, "45edc1680eebc9ab8fed79a6bb7c9c5b843721838d6c4a857236ffd9b4617178"},
		{"leo/seed42", LEOParams, 42, "0d8551f6479c6a5dc82a545032f1dd2645f8c4851cd14ab980e544e353d509e0"},
		{"leo/seed7", LEOParams, 7, "cf11be6ade346b07ce55baf837df6989507e372aa588b04901a9fe72c4fd0d45"},
	}
	for _, tc := range cases {
		p := tc.params()
		p.Seed += tc.reseed
		m := NewModel(p)
		m.Prebuild(0)
		if got := gridDigest(m); got != tc.want {
			t.Errorf("%s: grid digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPrebuildParallelismInvariance: the grid does not depend on how many
// workers built it, hence not on which cells shared a worker's scratch or
// in what order they finished.
func TestPrebuildParallelismInvariance(t *testing.T) {
	p := fastParams()
	p.SimFrames = 300
	p.Seed = 0xfeed2 // distinct Params → this test's own cache entries
	var want string
	for _, workers := range []int{1, 2, 8} {
		// Forget the previous round's cells so this one builds them again.
		sharedCells.Range(func(k, _ any) bool {
			if k.(cellKey).p == p {
				sharedCells.Delete(k)
			}
			return true
		})
		built := mCellBuilds.Value()
		m := NewModel(p)
		m.Prebuild(workers)
		if n := int(mCellBuilds.Value() - built); n != m.GridSize() {
			t.Fatalf("%d workers built %d cells, grid has %d", workers, n, m.GridSize())
		}
		got := gridDigest(m)
		if want == "" {
			want = got
		}
		if got != want {
			t.Errorf("%d workers: grid digest %s, 1 worker gave %s", workers, got, want)
		}
	}
}

// TestCellBuildAllocationBudget keeps the micro-simulation's allocations
// independent of its arrivals (about 38 000 here): what remains is setup —
// the RNG, per-CPE state and grant events, the scratch and the table.
func TestCellBuildAllocationBudget(t *testing.T) {
	p := fastParams()
	allocs := testing.AllocsPerRun(3, func() { simulateAccessDelay(p, 0.98, 1e-3, 1) })
	if allocs > 200 {
		t.Fatalf("one cell build allocates %v objects, budget 200", allocs)
	}
}

// TestSimulateAllocationsFixed is the event loop's allocation budget: once
// a scratch has grown to a cell's load, a run allocates only its setup (the
// RNG, per-CPE state, the grant ring, the contention buffers and the
// table), the same count at a sparse and at a saturated cell, so nothing
// is paid per arrival or per event.
func TestSimulateAllocationsFixed(t *testing.T) {
	p := fastParams()
	var sc scratch
	simulate(p, 0.98, 1e-3, 1, &sc) // grow the scratch to the heaviest load
	run := func(util float64) float64 {
		return testing.AllocsPerRun(3, func() { simulate(p, util, 1e-3, 1, &sc) })
	}
	sparse, saturated := run(0.05), run(0.98)
	if sparse != saturated || saturated > 12 {
		t.Fatalf("a warmed run allocates %v objects at util 0.05 and %v at 0.98, want equal and at most 12",
			sparse, saturated)
	}
}

// TestNextHeadOrder: the earliest head fires whatever its issue number,
// and the grant head counts only while a grant is in flight.
func TestNextHeadOrder(t *testing.T) {
	early, late, later := event{at: 10, seq: 9}, event{at: 20, seq: 1}, event{at: 30, seq: 2}
	cases := []struct {
		arrival, frame, grant event
		inFlight              bool
		want                  int
	}{
		{early, late, later, true, fireArrival},
		{later, early, late, true, fireFrame},
		{late, later, early, true, fireGrant},
		{later, early, event{at: 5, seq: 3}, false, fireFrame},
		{late, later, early, false, fireArrival},
	}
	for _, c := range cases {
		if got := nextHead(c.arrival, c.frame, c.grant, c.inFlight); got != c.want {
			t.Errorf("nextHead(%v, %v, %v, %v) = %d, want %d", c.arrival, c.frame, c.grant, c.inFlight, got, c.want)
		}
	}
}

// TestNextHeadTieBreak pins the same-instant order for every pair of
// heads: the one scheduled first fires first. The goldens hold only part
// of it. With LEO's 5 ms frames and 10 ms HopRTT every grant falls due on
// a frame instant, so a grant losing that tie moves the LEO digests; an
// arrival and a frame due at the same nanosecond never happen to occur in
// the pinned grids, so only this test holds that pair.
func TestNextHeadTieBreak(t *testing.T) {
	names := [...]string{fireArrival: "arrival", fireFrame: "frame", fireGrant: "grant"}
	for first := range names {
		for second := range names {
			if first == second {
				continue
			}
			var heads [len(names)]event
			for h := range heads {
				heads[h] = event{at: 20, seq: 1} // the third head, due later
			}
			heads[first] = event{at: 10, seq: 5}
			heads[second] = event{at: 10, seq: 6}
			if got := nextHead(heads[fireArrival], heads[fireFrame], heads[fireGrant], true); got != first {
				t.Errorf("%s scheduled before %s, due at the same instant: %s fires first",
					names[first], names[second], names[got])
			}
		}
	}
	// All three due together: issue order alone decides.
	for first := range names {
		var heads [len(names)]event
		for h := range heads {
			heads[h] = event{at: 10, seq: uint64(3 + (h-first+len(names))%len(names))}
		}
		if got := nextHead(heads[fireArrival], heads[fireFrame], heads[fireGrant], true); got != first {
			t.Errorf("three heads due together, %s scheduled first: %s fires first", names[first], names[got])
		}
	}
}
