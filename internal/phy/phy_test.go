package phy

import (
	"testing"

	"satwatch/internal/geo"
)

func chanFor(t *testing.T, code geo.CountryCode) Channel {
	t.Helper()
	c, ok := geo.ByCode(code)
	if !ok {
		t.Fatalf("country %s missing", code)
	}
	return ChannelFor(c)
}

func TestMarginDecreasesWithRain(t *testing.T) {
	ch := chanFor(t, "ES")
	prev := ch.LinkMarginDB(0)
	for rain := 0.2; rain <= 1.0; rain += 0.2 {
		m := ch.LinkMarginDB(rain)
		if m >= prev {
			t.Fatalf("margin not decreasing with rain at %.1f", rain)
		}
		prev = m
	}
}

func TestFERIncreasesWithRain(t *testing.T) {
	ch := chanFor(t, "GB")
	if ch.FrameErrorRate(1.0) <= ch.FrameErrorRate(0) {
		t.Fatal("heavy fade did not raise FER")
	}
}

func TestEfficiencyDecreasesWithRain(t *testing.T) {
	ch := chanFor(t, "NG")
	if ch.SpectralEfficiency(1.0) >= ch.SpectralEfficiency(0) {
		t.Fatal("heavy fade did not reduce spectral efficiency")
	}
}

func TestIrelandWorstChannel(t *testing.T) {
	// §6.1: Ireland sits at the coverage edge with severe impairments, so
	// its clear-sky FER must dominate every other top-6 country's.
	ie := chanFor(t, "IE")
	for _, code := range []geo.CountryCode{"CD", "NG", "ZA", "ES", "GB"} {
		other := chanFor(t, code)
		if other.FrameErrorRate(0) > ie.FrameErrorRate(0) {
			t.Fatalf("%s clear-sky FER %.2g above Ireland's %.2g", code, other.FrameErrorRate(0), ie.FrameErrorRate(0))
		}
	}
	if ie.FrameErrorRate(0) < 1e-3 {
		t.Fatalf("Ireland clear-sky FER %.2g too clean to reproduce the paper's impairments", ie.FrameErrorRate(0))
	}
}

func TestNigeriaBestChannel(t *testing.T) {
	ng := chanFor(t, "NG")
	for _, code := range []geo.CountryCode{"CD", "ZA", "IE", "GB"} {
		other := chanFor(t, code)
		if other.FrameErrorRate(0) < ng.FrameErrorRate(0) {
			t.Fatalf("%s clear-sky FER below Nigeria's", code)
		}
	}
}

func TestUnknownCountryGetsDefaults(t *testing.T) {
	ch := ChannelFor(geo.Country{Code: "XX", Lat: 45, Lon: 9})
	if ch.EdgeFactor != 0.3 {
		t.Fatalf("default edge factor %v, want 0.3", ch.EdgeFactor)
	}
}

func TestLadderMonotone(t *testing.T) {
	// Lower margin must never increase efficiency nor decrease FER.
	ch := Channel{ElevationDeg: 90}
	prevEff, prevFER := 100.0, 0.0
	for rain := 0.0; rain <= 1.0; rain += 0.05 {
		eff := ch.SpectralEfficiency(rain)
		fer := ch.FrameErrorRate(rain)
		if eff > prevEff || fer < prevFER {
			t.Fatalf("ACM ladder non-monotone at rain %.2f", rain)
		}
		prevEff, prevFER = eff, fer
	}
}
