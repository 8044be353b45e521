package dist

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestForkIndependentOfConsumption(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 50; i++ {
		a.Float64() // consume the parent
	}
	fa := a.Fork("workload")
	fb := b.Fork("workload")
	for i := 0; i < 20; i++ {
		if fa.Uint64() != fb.Uint64() {
			t.Fatal("forked stream depends on parent consumption")
		}
	}
}

func TestForkLabelsDiffer(t *testing.T) {
	r := NewRand(1)
	if r.Fork("a").Uint64() == r.Fork("b").Uint64() {
		t.Fatal("different labels gave identical streams")
	}
	if r.ForkN("x", 1).Uint64() == r.ForkN("x", 2).Uint64() {
		t.Fatal("different indices gave identical streams")
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(9)
	const mean = 250.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("exponential mean %.2f, want ~%.0f", got, mean)
	}
	if r.Exponential(0) != 0 || r.Exponential(-5) != 0 {
		t.Fatal("non-positive mean should sample 0")
	}
}

func TestLogNormalMedianAndMean(t *testing.T) {
	d := LogNormalFromMedian(100, 1.0)
	r := NewRand(11)
	below, sum := 0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		if x < 100 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("%.3f of samples below the median, want ~0.5", frac)
	}
	// The mean is exp(mu + sigma^2/2); sigma = 1 puts its standard error
	// over n draws near 0.4 %.
	if wantMean := 100 * math.Exp(0.5); math.Abs(sum/n-wantMean)/wantMean > 0.02 {
		t.Fatalf("sample mean %.2f, want ~%.2f", sum/n, wantMean)
	}
}

// TestStreamsArePinned holds every stream to the draws it gave while the
// generator state was three heap objects (a Rand, a rand.Rand and a PCG):
// folding them into one must not move a single bit. ForkN runs once per
// live intent, so it is also held to its one object.
func TestStreamsArePinned(t *testing.T) {
	for _, tc := range []struct {
		seed              uint64
		root              [2]uint64
		fork, forkN, days uint64
	}{
		{0, [2]uint64{0x7655d15c919ef624, 0xb87a4210b4edc8b7}, 0x8d3543f76b0fef82, 0x13b9134640ea9cef, 0xa50938089966731e},
		{1, [2]uint64{0x8707a01d6329783f, 0x7df1bd4a477b564}, 0xa4b8ab96531f8211, 0x6dc00be1601319b2, 0xfe65c69222282177},
		{42, [2]uint64{0x743a6a4551a9b830, 0xf9015ec7f256d640}, 0x4aaed55acbc5eaeb, 0xb666ab223137ada2, 0x538ff6da1f84234f},
		{2022, [2]uint64{0x4f7a304a0ddc710b, 0xa46297bdc0a8e467}, 0x8bf7cd754a3da6d0, 0x1fc72cfcca3bdf00, 0x571a6e61f19a08b1},
		{1<<63 + 12345, [2]uint64{0x21c1a7a9748d47eb, 0x862c6f648e2e1e7}, 0xbe77e7a9c8b52d33, 0xdbf81835e31d2b9b, 0x83363695f7e61d5},
	} {
		r := NewRand(tc.seed)
		fork, forkN, days := r.Fork("live-rate"), r.ForkN("live-synth", 7), r.ForkN("day", 1025)
		if got := [2]uint64{r.Uint64(), r.Uint64()}; got != tc.root {
			t.Errorf("seed %d: NewRand draws %#x, want %#x", tc.seed, got, tc.root)
		}
		if got := fork.Uint64(); got != tc.fork {
			t.Errorf("seed %d: Fork draw %#x, want %#x", tc.seed, got, tc.fork)
		}
		if got := forkN.Uint64(); got != tc.forkN {
			t.Errorf("seed %d: ForkN(live-synth, 7) draw %#x, want %#x", tc.seed, got, tc.forkN)
		}
		if got := days.Uint64(); got != tc.days {
			t.Errorf("seed %d: ForkN(day, 1025) draw %#x, want %#x", tc.seed, got, tc.days)
		}
	}
	root := NewRand(5)
	var sink *Rand
	if n := testing.AllocsPerRun(100, func() { sink = root.ForkN("live-synth", 3) }); n != 1 {
		t.Errorf("ForkN allocates %v objects, want 1", n)
	}
	_ = sink
	// SetForkN is ForkN in place: the same first draws, over a Rand that
	// has drawn from other streams before, and no object at all.
	var inPlace Rand
	for _, tc := range []struct {
		seed  uint64
		label string
		n     uint64
		want  uint64
	}{
		{0, "live-synth", 7, 0x13b9134640ea9cef},
		{42, "day", 1025, 0x538ff6da1f84234f},
		{1, "live-synth", 7, 0x6dc00be1601319b2},
		{2022, "day", 1025, 0x571a6e61f19a08b1},
	} {
		inPlace.SetForkN(NewRand(tc.seed), tc.label, tc.n)
		if got := inPlace.Uint64(); got != tc.want {
			t.Errorf("seed %d: SetForkN(%s, %d) draw %#x, want %#x", tc.seed, tc.label, tc.n, got, tc.want)
		}
		fresh := NewRand(tc.seed).ForkN(tc.label, tc.n)
		fresh.Uint64()
		for i := 0; i < 8; i++ {
			if a, b := inPlace.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d: SetForkN draw %d = %v, ForkN's %v", tc.seed, i+1, a, b)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { inPlace.SetForkN(root, "live-synth", 3) }); n != 0 {
		t.Errorf("SetForkN allocates %v objects, want 0", n)
	}
}
