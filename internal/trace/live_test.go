package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func liveFlow(c, d, i int, start time.Duration) *Flow {
	f := &Flow{Customer: c, Day: d, Index: i}
	f.SetMeta(1, "IT", 9, "TCP/HTTPS", "x.test", start)
	f.Span(SpanLiveSynth, SegProbe, 2*time.Millisecond, nil)
	f.SetTotal(550 * time.Millisecond)
	return f
}

func TestRingRecentNewestFirstAndBounded(t *testing.T) {
	r := NewRing(3)
	if got := r.Recent(0); len(got) != 0 {
		t.Fatalf("empty ring Recent = %d flows", len(got))
	}
	for i := 0; i < 5; i++ {
		r.Add(liveFlow(0, 0, i, time.Duration(i)*time.Second))
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	got := r.Recent(0)
	if len(got) != 3 {
		t.Fatalf("ring retained %d flows, want cap 3", len(got))
	}
	// Newest first: indices 4, 3, 2 survive; 0 and 1 were evicted.
	for i, want := range []int{4, 3, 2} {
		if got[i].Index != want {
			t.Errorf("Recent[%d] = f%d, want f%d", i, got[i].Index, want)
		}
	}
	if limited := r.Recent(2); len(limited) != 2 || limited[0].Index != 4 {
		t.Errorf("Recent(2) = %d flows starting at f%d", len(limited), limited[0].Index)
	}
	// Nil-safety and min-capacity clamp.
	var nilRing *Ring
	nilRing.Add(liveFlow(0, 0, 0, 0))
	if nilRing.Recent(1) != nil || nilRing.Total() != 0 {
		t.Error("nil ring not inert")
	}
	one := NewRing(0)
	one.Add(liveFlow(0, 0, 7, 0))
	if got := one.Recent(0); len(got) != 1 || got[0].Index != 7 {
		t.Errorf("NewRing(0) must clamp to capacity 1, got %d flows", len(got))
	}
}

func TestRotatingWriterRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewRotatingWriter(dir)
	if err != nil {
		t.Fatalf("NewRotatingWriter: %v", err)
	}
	// Tiny cap forces a rotation every couple of lines; keep 2.
	w.maxBytes, w.keep = 300, 2
	var rotations int
	for i := 0; i < 12; i++ {
		rotated, err := w.Write(liveFlow(1, 0, i, time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		if rotated {
			rotations++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rotations == 0 {
		t.Fatal("no write reported a rotation")
	}
	if _, err := os.Stat(w.Current()); err != nil {
		t.Fatalf("current file after rotation: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "trace*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 3 { // current + keep
		t.Fatalf("pruning kept %d files, want <= keep+1 = 3", len(files))
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.3.jsonl")); !os.IsNotExist(err) {
		t.Error("rotation beyond keep=2 survived pruning")
	}

	// The rotated set reads back as a complete, mergeable stream.
	flows, st, err := ReadFilesTolerant(files)
	if err != nil {
		t.Fatalf("ReadFilesTolerant: %v", err)
	}
	if st.Skipped != 0 {
		t.Fatalf("clean logs reported %d skipped lines", st.Skipped)
	}
	// The newest files hold the latest flows; only the oldest rotation
	// may have been pruned away, so the retained set is a contiguous
	// suffix of the write order.
	if len(flows) < 3 || len(flows) > 12 {
		t.Fatalf("read %d flows from rotated set", len(flows))
	}
	SortByStart(flows)
	for i := 1; i < len(flows); i++ {
		if flows[i].StartMS < flows[i-1].StartMS {
			t.Fatalf("SortByStart out of order at %d", i)
		}
		if flows[i].Index != flows[i-1].Index+1 {
			t.Fatalf("retained flows not contiguous: f%d after f%d", flows[i].Index, flows[i-1].Index)
		}
	}
	if last := flows[len(flows)-1]; last.Index != 11 {
		t.Fatalf("newest flow = f%d, want f11", last.Index)
	}
}

func TestSortByStartTieBreaksByIdentity(t *testing.T) {
	flows := []*Flow{
		{Customer: 2, Day: 0, Index: 1, StartMS: 100},
		{Customer: 1, Day: 1, Index: 9, StartMS: 100},
		{Customer: 1, Day: 0, Index: 5, StartMS: 100},
		{Customer: 1, Day: 0, Index: 2, StartMS: 50},
	}
	SortByStart(flows)
	want := []string{"c1-d0-f2", "c1-d0-f5", "c1-d1-f9", "c2-d0-f1"}
	for i, w := range want {
		if flows[i].ID() != w {
			t.Fatalf("order[%d] = %s, want %s", i, flows[i].ID(), w)
		}
	}
}

func TestStartSampledDeliversToSink(t *testing.T) {
	var got []*Flow
	sink := SinkFunc(func(f *Flow) { got = append(got, f) })

	if fl := StartSampled(nil, 1, 0, 0, 1); fl != nil {
		t.Fatal("nil sink must disable tracing")
	}
	// sampleN <= 1 samples everything.
	fl := StartSampled(sink, 3, 1, 7, 1)
	if fl == nil {
		t.Fatal("StartSampled(n=1) returned nil")
	}
	fl.Span(SpanLiveQueueWait, SegProbe, time.Millisecond, nil)
	fl.Finish()
	fl.Finish() // double Finish must deliver once
	if len(got) != 1 || got[0].ID() != "c3-d1-f7" {
		t.Fatalf("sink received %d flows: %v", len(got), got)
	}

	// The sampling decision must match Sampled exactly (the batch
	// -trace-sample contract carried onto the streaming path).
	const n = 10
	for i := 0; i < 200; i++ {
		fl := StartSampled(sink, 5, 2, i, n)
		if (fl != nil) != Sampled(5, 2, i, n) {
			t.Fatalf("StartSampled and Sampled disagree at index %d", i)
		}
	}
}

func TestRotatingWriterTolerantOfTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w, err := NewRotatingWriter(dir) // defaults: one big file
	if err != nil {
		t.Fatalf("NewRotatingWriter: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Write(liveFlow(0, 0, i, 0)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a kill mid-write: chop the final line in half.
	path := filepath.Join(dir, "trace.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.TrimSuffix(string(b), "\n")
	cut = cut[:len(cut)-10]
	if err := os.WriteFile(path, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	flows, st, err := ReadFilesTolerant([]string{path})
	if err != nil {
		t.Fatalf("ReadFilesTolerant: %v", err)
	}
	if len(flows) != 2 || st.Skipped != 1 {
		t.Fatalf("salvage read %d flows, %d skipped; want 2, 1", len(flows), st.Skipped)
	}
}

// A daemon killed mid-write leaves a torn last line; the restarted writer
// must start a fresh line, or its first flow is glued onto the torn one
// and both are skipped at the next read.
func TestRotatingWriterRestartAfterTornTailLosesNoFlow(t *testing.T) {
	dir := t.TempDir()
	write := func(from, to int) {
		t.Helper()
		w, err := NewRotatingWriter(dir)
		if err != nil {
			t.Fatalf("NewRotatingWriter: %v", err)
		}
		for i := from; i < to; i++ {
			if _, err := w.Write(liveFlow(0, 0, i, 0)); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	write(0, 3)
	path := filepath.Join(dir, "trace.jsonl")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	write(3, 5)
	flows, st, err := ReadFilesTolerant([]string{path})
	if err != nil {
		t.Fatalf("ReadFilesTolerant: %v", err)
	}
	var got []int
	for _, f := range flows {
		got = append(got, f.Index)
	}
	if fmt.Sprint(got) != "[0 1 3 4]" || st.Skipped != 1 {
		t.Fatalf("read flows %v with %d skipped; want [0 1 3 4] (only the torn f2 lost) and 1", got, st.Skipped)
	}
}
