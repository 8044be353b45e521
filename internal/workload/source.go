package workload

import (
	"sort"

	"satwatch/internal/dist"
)

// Source generates flow intents incrementally, in global start order,
// holding at most one day of the whole population in memory — the live
// pipeline's replacement for the batch simulator's whole-window
// generation. Day d of customer c uses the exact same forked random
// stream as the batch passes (root.ForkN("day", c.ID*1024+d)), so the
// intents themselves are identical to what a batch run would feed the
// synthesizer; only the interleaving differs (sorted by Start across the
// population instead of grouped per customer).
//
// Days advance without bound, reusing the diurnal profile — the daemon's
// "day 37" workload is day 37's forked streams over the same population.
// Source is not goroutine-safe; the generator stage owns it.
type Source struct {
	customers []*Customer
	root      *dist.Rand
	day       int
	buf       []FlowIntent
	pos       int
}

// NewSource builds a source over the population. root must be the same
// run root a batch simulation would use for identical intents.
func NewSource(customers []*Customer, root *dist.Rand) *Source {
	return &Source{customers: customers, root: root}
}

// Next returns the next flow intent in start order. It never runs dry:
// exhausting a day's buffer generates the next day for every customer.
// The returned pointer is valid until the following Next call consumes
// the buffer (the caller copies or finishes with it before then).
func (s *Source) Next() *FlowIntent {
	for s.pos >= len(s.buf) {
		s.generateDay()
	}
	fi := &s.buf[s.pos]
	s.pos++
	return fi
}

func (s *Source) generateDay() {
	s.buf = s.buf[:0]
	s.pos = 0
	for _, c := range s.customers {
		r := s.root.ForkN("day", uint64(c.ID)*1024+uint64(s.day))
		s.buf = append(s.buf, GenerateDay(c, s.day, r)...)
	}
	sort.SliceStable(s.buf, func(i, j int) bool { return s.buf[i].Start < s.buf[j].Start })
	s.day++
}
