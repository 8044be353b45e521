package report

import (
	"fmt"
	"sort"
	"strings"

	"satwatch/internal/analytics"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
)

// Fig8a is the satellite-RTT distribution per country, night vs peak.
type Fig8a struct {
	Night map[geo.CountryCode]*analytics.Sample // seconds
	Peak  map[geo.CountryCode]*analytics.Sample
}

// BuildFig8a computes the satellite-RTT CDFs from TLS-measured flows.
func BuildFig8a(ds *analytics.Dataset) Fig8a {
	return Fig8a{Night: samples(ds.SatRTTNight), Peak: samples(ds.SatRTTPeak)}
}

// Render prints the quartiles the paper's dashed/dotted lines mark.
func (f Fig8a) Render() string {
	tab := &table{header: []string{"Country", "window", "P25", "median", "P75", "P(<1s)", "P(>2s)"}}
	for _, code := range top6 {
		for _, w := range []struct {
			name string
			s    *analytics.Sample
		}{{"night", f.Night[code]}, {"peak", f.Peak[code]}} {
			if w.s == nil || w.s.Len() == 0 {
				continue
			}
			tab.add(countryName(code), w.name,
				fmt.Sprintf("%.2fs", w.s.Quantile(0.25)),
				fmt.Sprintf("%.2fs", w.s.Median()),
				fmt.Sprintf("%.2fs", w.s.Quantile(0.75)),
				fmtPct(100*w.s.CDF(1.0))+" %",
				fmtPct(100*w.s.CCDF(2.0))+" %")
		}
	}
	return "Figure 8a: satellite-segment RTT per country (TLS handshake estimate)\n" + tab.String()
}

// Fig8bRow is one beam of Figure 8b.
type Fig8bRow struct {
	Beam       int
	Country    geo.CountryCode
	UtilNorm   float64 // peak utilization normalized to the busiest beam
	MedianRTTs float64 // median satellite RTT in seconds, peak window
	Samples    int
}

// Fig8b is the median satellite RTT per beam vs normalized utilization.
type Fig8b struct {
	Rows []Fig8bRow
}

// BuildFig8b joins per-beam RTTs with the simulator's beam-load stats.
func BuildFig8b(ds *analytics.Dataset, beams []netsim.BeamStat) Fig8b {
	byBeam := ds.SatRTTByBeam
	maxUtil := 0.0
	for _, b := range beams {
		if b.PeakUtil > maxUtil {
			maxUtil = b.PeakUtil
		}
	}
	var rows []Fig8bRow
	for _, b := range beams {
		xs := byBeam[b.Beam]
		if len(xs) == 0 {
			continue
		}
		s := analytics.NewSample(xs)
		norm := 0.0
		if maxUtil > 0 {
			norm = b.PeakUtil / maxUtil
		}
		rows = append(rows, Fig8bRow{Beam: b.Beam, Country: b.Country,
			UtilNorm: norm, MedianRTTs: s.Median(), Samples: s.Len()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Beam < rows[j].Beam })
	return Fig8b{Rows: rows}
}

// Render prints the per-beam scatter as a table.
func (f Fig8b) Render() string {
	tab := &table{header: []string{"Beam", "Country", "util (norm)", "median sat RTT", "samples"}}
	for _, r := range f.Rows {
		tab.add(fmt.Sprintf("%d", r.Beam), countryName(r.Country),
			fmt.Sprintf("%.2f", r.UtilNorm), fmt.Sprintf("%.2fs", r.MedianRTTs),
			fmt.Sprintf("%d", r.Samples))
	}
	return "Figure 8b: median satellite RTT per beam vs normalized utilization (peak window)\n" + tab.String()
}

// Fig9 is the ground-segment RTT distribution per country.
type Fig9 struct {
	Samples map[geo.CountryCode]*analytics.Sample // seconds, volume-weighted
}

// BuildFig9 computes the ground-RTT CDFs.
func BuildFig9(ds *analytics.Dataset) Fig9 {
	return Fig9{Samples: samples(ds.GroundRTT)}
}

// Render prints medians and the paper's bump landmarks.
func (f Fig9) Render() string {
	tab := &table{header: []string{"Country", "median", "P(<=20ms)", "P(<=50ms)", "P(<=120ms)", "P(>250ms)"}}
	for _, code := range top6 {
		s, ok := f.Samples[code]
		if !ok || s.Len() == 0 {
			continue
		}
		tab.add(countryName(code),
			fmtMs(s.Median()),
			fmtPct(100*s.CDF(0.020))+" %",
			fmtPct(100*s.CDF(0.050))+" %",
			fmtPct(100*s.CDF(0.120))+" %",
			fmtPct(100*s.CCDF(0.250))+" %")
	}
	return "Figure 9: ground-segment RTT per country (volume-weighted)\n" + tab.String()
}

// Fig11 is the download throughput analysis.
type Fig11 struct {
	// All/Night/Peak hold goodput samples (bit/s) per country for flows
	// of at least the size threshold.
	All   map[geo.CountryCode]*analytics.Sample
	Night map[geo.CountryCode]*analytics.Sample
	Peak  map[geo.CountryCode]*analytics.Sample
	// MinBytes is the flow-size threshold used.
	MinBytes int64
}

// BuildFig11 computes throughput distributions for bulk flows. The paper
// uses ≥10 MB; scaled runs may pass a smaller threshold.
func BuildFig11(ds *analytics.Dataset, minBytes int64) Fig11 {
	night, peak, all := ds.ThroughputSamples(minBytes)
	return Fig11{All: samples(all), Night: samples(night), Peak: samples(peak), MinBytes: minBytes}
}

// Render prints the CCDF landmarks and night/peak medians.
func (f Fig11) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11: download throughput per country (flows ≥ %s)\n", fmtBytes(float64(f.MinBytes)))
	tab := &table{header: []string{"Country", "median", "P90", "P(>8Mb/s)", "P(>25Mb/s)", "night med", "peak med"}}
	for _, code := range top6 {
		s, ok := f.All[code]
		if !ok || s.Len() == 0 {
			continue
		}
		nightMed, peakMed := "-", "-"
		if n, ok := f.Night[code]; ok && n.Len() > 0 {
			nightMed = fmtMbps(n.Median())
		}
		if p, ok := f.Peak[code]; ok && p.Len() > 0 {
			peakMed = fmtMbps(p.Median())
		}
		tab.add(countryName(code),
			fmtMbps(s.Median()), fmtMbps(s.Quantile(0.9)),
			fmtPct(100*s.CCDF(8e6))+" %", fmtPct(100*s.CCDF(25e6))+" %",
			nightMed, peakMed)
	}
	sb.WriteString(tab.String())
	return sb.String()
}
