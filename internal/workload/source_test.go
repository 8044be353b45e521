package workload

import (
	"sort"
	"testing"

	"satwatch/internal/dist"
)

// TestSourceIsTheStableSortOfItsDays holds the source to its order
// contract: days 0 and 1 come out as sort.SliceStable by Start of every
// customer's GenerateDay, concatenated in population order. Spanning two
// days covers the midnight rollover, which reuses the day buffer.
func TestSourceIsTheStableSortOfItsDays(t *testing.T) {
	for _, n := range []int{7, 40} {
		cs := pop(t, n, 3)
		root := dist.NewRand(11)
		var want []FlowIntent
		for day := 0; day < 2; day++ {
			for _, c := range cs {
				want = append(want, GenerateDay(c, day, root.ForkN("day", uint64(c.ID)*1024+uint64(day)))...)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Start < want[j].Start })

		src := NewSource(cs, root)
		for i, w := range want {
			if got := *src.Next(); got != w {
				t.Fatalf("%d customers: intent %d is %s %s at %s, want %s %s at %s",
					n, i, got.Customer.Country.Code, got.Domain, got.Start, w.Customer.Country.Code, w.Domain, w.Start)
			}
		}
		if got := src.Next().Start; got < 2*Day {
			t.Errorf("%d customers: intent after days 0 and 1 starts at %s, want day 2", n, got)
		}
	}
}

// TestSourceStartAtSkipsEarlierDays: a source started at day 2 yields
// what a fresh source yields from its first intent at or after 48 h.
func TestSourceStartAtSkipsEarlierDays(t *testing.T) {
	cs := pop(t, 20, 3)
	root := dist.NewRand(11)
	fresh := NewSource(cs, root)
	fi := fresh.Next()
	for fi.Start < 2*Day {
		fi = fresh.Next()
	}
	resumed := NewSource(cs, root)
	resumed.StartAt(2)
	for i := 0; fi.Start < 3*Day+Day/4; i++ {
		if got := *resumed.Next(); got != *fi {
			t.Fatalf("intent %d after 48 h: resumed source has %s at %s, fresh one %s at %s",
				i, got.Domain, got.Start, fi.Domain, fi.Start)
		}
		fi = fresh.Next()
	}
}
