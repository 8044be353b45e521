package report

import (
	"fmt"
	"sort"

	"satwatch/internal/analytics"
	"satwatch/internal/geo"
)

// SignatureRow is one country's satellite-RTT distribution fingerprint.
// The quantile fields are in seconds, like every latency in this package.
type SignatureRow struct {
	Country geo.CountryCode
	N       int
	Min     float64
	P25     float64
	Median  float64
	P75     float64
	P95     float64
	// Spread is the p75−p25 interquartile range: near zero for a static
	// GEO bent pipe, tens of milliseconds when passes sweep overhead.
	Spread float64
	// Class is the orbit family the fingerprint matches: "geo" when the
	// median sits on a ≳450 ms bent-pipe floor, "leo" when it is under
	// 100 ms, "mixed" otherwise.
	Class string
}

// Signatures is the region-level latency-signature experiment: a
// per-country satellite-RTT distribution fingerprint, in the spirit of
// the RTT-signature literature — the shape of the latency distribution
// alone identifies the access technology serving a region, without any
// ground truth about the operator.
type Signatures struct {
	Rows []SignatureRow
}

// classifyOrbit maps a median satellite RTT (seconds) to an orbit family.
func classifyOrbit(median float64) string {
	switch {
	case median >= 0.45:
		return "geo"
	case median <= 0.10:
		return "leo"
	default:
		return "mixed"
	}
}

// BuildSignatures computes each country's satellite-RTT fingerprint over
// all flows with a TLS-derived satellite RTT estimate.
func BuildSignatures(ds *analytics.Dataset) Signatures {
	var sig Signatures
	for code, xs := range ds.SatRTT {
		s := analytics.NewSample(xs)
		row := SignatureRow{
			Country: code,
			N:       s.Len(),
			Min:     s.Min(),
			P25:     s.Quantile(0.25),
			Median:  s.Median(),
			P75:     s.Quantile(0.75),
			P95:     s.Quantile(0.95),
		}
		row.Spread = row.P75 - row.P25
		row.Class = classifyOrbit(row.Median)
		sig.Rows = append(sig.Rows, row)
	}
	sort.Slice(sig.Rows, func(i, j int) bool { return sig.Rows[i].Country < sig.Rows[j].Country })
	return sig
}

// Render prints the fingerprint table.
func (s Signatures) Render() string {
	t := &table{header: []string{"Country", "Flows", "Min", "p25", "Median", "p75", "p95", "IQR", "Class"}}
	for _, r := range s.Rows {
		t.add(countryName(r.Country), fmt.Sprintf("%d", r.N), fmtMs(r.Min),
			fmtMs(r.P25), fmtMs(r.Median), fmtMs(r.P75), fmtMs(r.P95),
			fmtMs(r.Spread), r.Class)
	}
	return "Region latency signatures: per-country satellite-RTT fingerprints\n" + t.String()
}
