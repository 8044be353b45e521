package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndFlowAreNoOps(t *testing.T) {
	var tr *Tracer
	if fl := tr.Start(1, 2, 3); fl != nil {
		t.Fatalf("nil tracer Start = %v, want nil", fl)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("nil tracer Len = %d", n)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}

	var fl *Flow
	fl.SetMeta(1, "GB", 3, "TCP/HTTPS", "x.test", time.Second)
	fl.SetAttr("k", 1)
	fl.SetTotal(time.Second)
	fl.Span(SpanPEPSetup, SegSatellite, time.Millisecond, nil)
	fl.Finish() // must not panic
}

func TestSamplingDeterministicAndRoughlyUniform(t *testing.T) {
	const n = 50
	hits := 0
	for c := 0; c < 20; c++ {
		for i := 0; i < 500; i++ {
			a := Sampled(c, 1, i, n)
			b := Sampled(c, 1, i, n)
			if a != b {
				t.Fatalf("Sampled(%d,1,%d,%d) not deterministic", c, i, n)
			}
			if a {
				hits++
			}
		}
	}
	// 10000 identities at 1-in-50 ⇒ expect ~200; allow a wide band.
	if hits < 100 || hits > 350 {
		t.Fatalf("1-in-%d sampling selected %d of 10000 identities", n, hits)
	}
	if !Sampled(7, 3, 9, 1) || !Sampled(7, 3, 9, 0) {
		t.Fatal("n<=1 must sample every flow")
	}
}

func TestCloseWritesSortedDeterministicJSONL(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		tr := New(&buf, 1)
		// Finish out of identity order from several goroutines.
		ids := [][3]int{{2, 0, 5}, {0, 1, 3}, {0, 0, 9}, {1, 0, 0}, {0, 0, 1}}
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(c, d, i int) {
				defer wg.Done()
				fl := tr.Start(c, d, i)
				fl.SetMeta(4, "NG", 12, "TCP/HTTPS", "a.test", time.Hour)
				fl.Span(SpanPropagation, SegSatellite, 493*time.Millisecond, Attrs{"country": "NG"})
				fl.SetTotal(520 * time.Millisecond)
				fl.Finish()
			}(id[0], id[1], id[2])
		}
		wg.Wait()
		if got := tr.Len(); got != len(ids) {
			t.Fatalf("Len = %d, want %d", got, len(ids))
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("trace output not byte-identical across runs:\n%s\nvs\n%s", a, b)
	}
	flows, err := Read(strings.NewReader(a))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	wantOrder := []string{"c0-d0-f1", "c0-d0-f9", "c0-d1-f3", "c1-d0-f0", "c2-d0-f5"}
	if len(flows) != len(wantOrder) {
		t.Fatalf("read %d flows, want %d", len(flows), len(wantOrder))
	}
	for i, want := range wantOrder {
		if flows[i].ID() != want {
			t.Fatalf("flow %d = %s, want %s (output must sort by identity)", i, flows[i].ID(), want)
		}
	}
}

// TestCloseFileMatchesClose: the CLIs' file path writes what a writer
// tracer writes.
func TestCloseFileMatchesClose(t *testing.T) {
	var buf bytes.Buffer
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, tr := range []*Tracer{New(&buf, 1), New(nil, 1)} {
		for i := 0; i < 3; i++ {
			fl := tr.Start(1, 0, i)
			fl.SetTotal(520 * time.Millisecond)
			fl.Finish()
		}
		var err error
		if tr.w != nil {
			err = tr.Close()
		} else {
			err = tr.CloseFile(path)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("CloseFile wrote %q, Close wrote %q", got, buf.Bytes())
	}
}

func TestRoundTripPreservesSpansAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, 1)
	fl := tr.Start(3, 1, 7)
	fl.SetMeta(2, "ZA", 23, "UDP/QUIC", "v.test", 90*time.Minute)
	fl.SetAttr("rho", 0.75)
	fl.Span(SpanMACUplink, SegSatellite, 30*time.Millisecond, Attrs{"util": 0.5})
	fl.Span(SpanGroundRTT, SegGround, 25*time.Millisecond, nil)
	fl.Span(SpanHandshakeRTT, SegProbe, 580*time.Millisecond, nil)
	fl.SetTotal(555 * time.Millisecond)
	fl.Finish()
	fl.Finish() // double Finish records once
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	flows, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(flows) != 1 {
		t.Fatalf("read %d flows, want 1 (double Finish must record once)", len(flows))
	}
	got := flows[0]
	if got.ID() != "c3-d1-f7" || got.Beam != 2 || got.Country != "ZA" || got.Hour != 23 {
		t.Fatalf("metadata lost: %+v", got)
	}
	if got.TotalMS != 555 || len(got.Spans) != 3 {
		t.Fatalf("spans/total lost: total=%v spans=%d", got.TotalMS, len(got.Spans))
	}
	if got.ComponentMS(SpanMACUplink) != 30 || got.SatSumMS() != 30 {
		t.Fatalf("component sums wrong: %v / %v", got.ComponentMS(SpanMACUplink), got.SatSumMS())
	}
	if got.Attrs["rho"] != 0.75 || got.Spans[0].Attrs["util"] != 0.5 {
		t.Fatalf("attrs lost: %+v", got)
	}
}

func TestSpanNamesSortedAndComplete(t *testing.T) {
	names := SpanNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("SpanNames not sorted/unique at %d: %v", i, names)
		}
	}
	want := map[string]bool{
		SpanPropagation: true, SpanHandover: true, SpanMACUplink: true,
		SpanMACDownlink: true, SpanPEPSetup: true,
		SpanGroundRTT: true, SpanHandshakeRTT: true,
		SpanLiveQueueWait: true, SpanLiveSynth: true, SpanLiveAdmit: true,
	}
	if len(names) != len(want) {
		t.Fatalf("SpanNames has %d entries, want %d", len(names), len(want))
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("SpanNames lists unknown span %q", n)
		}
	}
}

// BenchmarkStartDisabled measures the tracing-disabled hot path: a nil
// Tracer's Start. This is the full cost tracing adds to every flow when
// -trace is unset and must stay a pointer check (sub-nanosecond, zero
// allocations).
func BenchmarkStartDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fl := tr.Start(1, 0, i); fl != nil {
			b.Fatal("nil tracer produced a flow")
		}
	}
}

// BenchmarkStartUnsampled measures the enabled-but-unsampled path (the
// common case at realistic sample rates): one hash, no allocation.
func BenchmarkStartUnsampled(b *testing.B) {
	tr := New(io.Discard, 1<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start(1, 0, i)
	}
}
