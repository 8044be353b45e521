package simtime

import (
	"testing"
	"time"
)

// drain executes events until the queue is empty.
func drain(s *Scheduler) {
	for s.Step() {
	}
}

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(30*time.Millisecond, func(Stamp) { got = append(got, 3) })
	s.At(10*time.Millisecond, func(Stamp) { got = append(got, 1) })
	s.At(20*time.Millisecond, func(Stamp) { got = append(got, 2) })
	drain(&s)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.now != 30*time.Millisecond {
		t.Fatalf("clock %v, want 30ms", s.now)
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func(Stamp) { got = append(got, i) })
	}
	drain(&s)
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order %v not FIFO", got)
		}
	}
}

func TestSchedulerAfterChaining(t *testing.T) {
	var s Scheduler
	var stamps []Stamp
	var tick func(Stamp)
	n := 0
	tick = func(now Stamp) {
		stamps = append(stamps, now)
		if n++; n < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	drain(&s)
	if len(stamps) != 5 {
		t.Fatalf("got %d ticks, want 5", len(stamps))
	}
	for i, st := range stamps {
		if want := time.Duration(i+1) * time.Second; st != want {
			t.Fatalf("tick %d at %v, want %v", i, st, want)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(time.Second, func(Stamp) { fired++ })
	s.At(3*time.Second, func(Stamp) { fired++ })
	s.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired %d events before deadline, want 1", fired)
	}
	if s.now != 2*time.Second {
		t.Fatalf("clock %v, want 2s", s.now)
	}
	if len(s.queue) != 1 {
		t.Fatalf("%d events pending, want 1", len(s.queue))
	}
	drain(&s)
	if fired != 2 {
		t.Fatalf("fired %d total, want 2", fired)
	}
}

func TestSchedulerNegativeAfterClamps(t *testing.T) {
	var s Scheduler
	s.At(time.Second, func(Stamp) {
		// From within an event, scheduling with a negative delay lands "now".
		s.After(-5*time.Second, func(now Stamp) {
			if now != time.Second {
				t.Fatalf("clamped event at %v, want 1s", now)
			}
		})
	})
	drain(&s)
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(time.Second, func(Stamp) {})
	drain(&s)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(500*time.Millisecond, func(Stamp) {})
}

func TestStepOnEmpty(t *testing.T) {
	var s Scheduler
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}
