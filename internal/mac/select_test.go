package mac

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// checkSelectRanks runs selectRanks on a copy of in and compares it with
// the full sort it replaces: same value at every wanted rank, and the
// output is a permutation of the input.
func checkSelectRanks(t *testing.T, in []time.Duration) {
	t.Helper()
	sorted := slices.Clone(in)
	slices.Sort(sorted)
	got := slices.Clone(in)
	ranks := tableRanks(len(in))
	selectRanks(got, 0, ranks)
	for _, k := range ranks {
		if got[k] != sorted[k] {
			t.Fatalf("rank %d of %d: selected %d, sort gives %d", k, len(in), got[k], sorted[k])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, sorted) {
		t.Fatalf("selectRanks changed the multiset of %d values", len(in))
	}
}

func TestSelectRanksMatchesSort(t *testing.T) {
	ramp := func(n int, f func(i int) time.Duration) []time.Duration {
		v := make([]time.Duration, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	cases := map[string][]time.Duration{
		"one":          {7},
		"fewer than 9": {5, 3, 9, 1},
		// 5 samples: levels 0.01–0.10 all read rank 0, 0.25 and 0.50 differ.
		"ranks coincide": {40, 10, 30, 20, 50},
		"all equal":      ramp(500, func(int) time.Duration { return 45 }),
		"sorted":         ramp(500, func(i int) time.Duration { return time.Duration(i) }),
		"reversed":       ramp(500, func(i int) time.Duration { return time.Duration(500 - i) }),
		"two values":     ramp(500, func(i int) time.Duration { return time.Duration(i * 7 % 2) }),
		"scattered":      ramp(5000, func(i int) time.Duration { return time.Duration(i * 7919 % 1009) }),
		"waves":          ramp(5000, func(i int) time.Duration { return time.Duration(min(i%400, 400-i%400)) }),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkSelectRanks(t, in) })
	}
}

// FuzzSelectRanks: for arbitrary values the nine selected order statistics
// equal sort-then-index and nothing is lost or invented. The first byte
// picks the element width, so narrow elements give duplicate-heavy inputs
// and 8-byte elements arbitrary int64s.
func FuzzSelectRanks(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 9})
	f.Add(append([]byte{0}, make([]byte, 300)...))
	f.Add(append([]byte{3}, bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 0x80, 0xff, 0xfe, 9}, 40)...))
	f.Add(append([]byte{1}, bytes.Repeat([]byte{0, 0, 1, 0, 0xff, 0xff, 2, 0}, 60)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := 1 << (data[0] & 3)
		data = data[1:]
		in := make([]time.Duration, 0, len(data)/width)
		var b [8]byte
		for ; len(data) >= width; data = data[width:] {
			clear(b[:])
			copy(b[:], data[:width])
			in = append(in, time.Duration(binary.LittleEndian.Uint64(b[:])))
		}
		if len(in) == 0 {
			return // distill never selects from no samples
		}
		checkSelectRanks(t, in)
	})
}
