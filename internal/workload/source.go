package workload

import (
	"cmp"
	"slices"
	"time"

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
	buf       []FlowIntent // the day, customer by customer
	order     []dayKey     // buf in start order
	pos       int          // next entry of order
}

// dayKey orders one intent of the day: ties on Start fall back to the
// intent's position in buf, so the order is the stable sort's while the
// sort moves 16 bytes per swap instead of a whole FlowIntent.
type dayKey struct {
	start time.Duration
	i     int
}

// NewSource builds a source over the population. root must be the same
// run root a batch simulation would use for identical intents.
func NewSource(customers []*Customer, root *dist.Rand) *Source {
	return &Source{customers: customers, root: root}
}

// StartAt positions the source at day's first intent: Next yields no
// intent of an earlier day, and from there the same sequence a fresh
// source reaches after its earlier days. Call it before the first Next.
func (s *Source) StartAt(day int) { s.day = day }

// Next returns the next flow intent in start order. It never runs dry:
// exhausting a day's buffer generates the next day for every customer.
// The returned pointer is valid until the following Next call consumes
// the buffer (the caller copies or finishes with it before then).
func (s *Source) Next() *FlowIntent {
	for s.pos >= len(s.order) {
		s.generateDay()
	}
	fi := &s.buf[s.order[s.pos].i]
	s.pos++
	return fi
}

func (s *Source) generateDay() {
	days := make([][]FlowIntent, len(s.customers))
	n := 0
	for k, c := range s.customers {
		days[k] = GenerateDay(c, s.day, s.root.ForkN("day", uint64(c.ID)*1024+uint64(s.day)))
		n += len(days[k])
	}
	if cap(s.buf) < n {
		s.buf, s.order = make([]FlowIntent, n), make([]dayKey, n)
	}
	s.buf, s.order = s.buf[:n], s.order[:n]
	n = 0
	for _, d := range days {
		n += copy(s.buf[n:], d)
	}
	for i := range s.buf {
		s.order[i] = dayKey{s.buf[i].Start, i}
	}
	slices.SortFunc(s.order, func(a, b dayKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	s.pos = 0
	s.day++
}
