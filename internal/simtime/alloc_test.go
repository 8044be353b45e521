package simtime

import (
	"testing"
	"time"
)

// TestSchedulerSteadyStateAllocatesNothing is the scheduler's allocation
// budget: once the heap has grown to the number of pending events a run
// keeps, scheduling and firing an event costs no heap object.
func TestSchedulerSteadyStateAllocatesNothing(t *testing.T) {
	var s Scheduler
	fired := 0
	fn := func(Stamp) { fired++ }
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Second, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Millisecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocates %v objects per cycle, want 0", allocs)
	}
	if fired == 0 || len(s.queue) != 64 {
		t.Fatalf("cycle did not run: fired %d, %d pending", fired, len(s.queue))
	}
}
