package report

import (
	"fmt"
	"sort"
	"strings"

	"satwatch/internal/analytics"
	"satwatch/internal/geo"
	"satwatch/internal/tstat"
)

// protoOrder is the Table 1 row order.
var protoOrder = []tstat.Protocol{
	tstat.ProtoHTTPS, tstat.ProtoHTTP, tstat.ProtoTCPOther,
	tstat.ProtoQUIC, tstat.ProtoRTP, tstat.ProtoDNS, tstat.ProtoUDPOther,
}

// Table1 is the TCP/UDP traffic breakdown by protocol (paper Table 1).
type Table1 struct {
	// SharePct is the percentage of total volume per protocol class.
	SharePct map[tstat.Protocol]float64
	Total    int64
}

// BuildTable1 computes the protocol volume breakdown.
func BuildTable1(ds *analytics.Dataset) Table1 {
	vols := ds.VolumeByProtocol()
	out := Table1{SharePct: map[tstat.Protocol]float64{}}
	for _, v := range vols {
		out.Total += v
	}
	if out.Total == 0 {
		return out
	}
	for p, v := range vols {
		out.SharePct[p] = 100 * float64(v) / float64(out.Total)
	}
	return out
}

// Render prints the paper-style table.
func (t Table1) Render() string {
	tab := &table{header: []string{"Protocol", "Volume share"}}
	for _, p := range protoOrder {
		share := t.SharePct[p]
		cell := fmtPct(share) + " %"
		if p == tstat.ProtoDNS && share < 0.1 {
			cell = "< 0.1 %"
		}
		tab.add(p.String(), cell)
	}
	return "Table 1: TCP/UDP traffic breakdown by protocol\n" + tab.String()
}

// Fig2Row is one country of Figure 2.
type Fig2Row struct {
	Country              geo.CountryCode
	VolumeSharePct       float64
	CustomerSharePct     float64
	VolumePerCustomerDay float64 // bytes
}

// Fig2 is the per-country breakdown of traffic volume and user base.
type Fig2 struct {
	Rows []Fig2Row // sorted by decreasing volume share
}

// BuildFig2 computes the country breakdown.
func BuildFig2(ds *analytics.Dataset) Fig2 {
	volByCountry := map[geo.CountryCode]int64{}
	var total int64
	for i := range ds.Flows {
		f := &ds.Flows[i]
		v := f.BytesUp + f.BytesDown
		volByCountry[f.Country] += v
		total += v
	}
	customers := ds.CustomersByCountry()
	nCust := 0
	for _, n := range customers {
		nCust += n
	}
	var rows []Fig2Row
	for code, v := range volByCountry {
		if code == "" {
			continue
		}
		row := Fig2Row{Country: code}
		if total > 0 {
			row.VolumeSharePct = 100 * float64(v) / float64(total)
		}
		if nCust > 0 {
			row.CustomerSharePct = 100 * float64(customers[code]) / float64(nCust)
		}
		if customers[code] > 0 && ds.Days > 0 {
			row.VolumePerCustomerDay = float64(v) / float64(customers[code]) / float64(ds.Days)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].VolumeSharePct > rows[j].VolumeSharePct })
	return Fig2{Rows: rows}
}

// Render prints the Figure 2 bars as a table.
func (f Fig2) Render() string {
	tab := &table{header: []string{"Country", "Volume %", "Customers %", "Vol/customer/day"}}
	for _, r := range f.Rows {
		tab.add(countryName(r.Country), fmtPct(r.VolumeSharePct), fmtPct(r.CustomerSharePct), fmtBytes(r.VolumePerCustomerDay))
	}
	return "Figure 2: per-country breakdown of traffic volume and user base\n" + tab.String()
}

// Fig3 is the protocol share per country.
type Fig3 struct {
	// SharePct[country][protocol] is the percentage of the country's
	// volume on that protocol.
	SharePct map[geo.CountryCode]map[tstat.Protocol]float64
	Order    []geo.CountryCode // top-10 by volume
}

// BuildFig3 computes per-country protocol shares for the top-10 countries.
func BuildFig3(ds *analytics.Dataset) Fig3 {
	byCountry := ds.VolumeByCountryProtocol()
	totals := map[geo.CountryCode]int64{}
	for code, m := range byCountry {
		for _, v := range m {
			totals[code] += v
		}
	}
	var order []geo.CountryCode
	for code := range byCountry {
		if code != "" {
			order = append(order, code)
		}
	}
	sort.Slice(order, func(i, j int) bool { return totals[order[i]] > totals[order[j]] })
	if len(order) > 10 {
		order = order[:10]
	}
	out := Fig3{SharePct: map[geo.CountryCode]map[tstat.Protocol]float64{}, Order: order}
	for _, code := range order {
		m := map[tstat.Protocol]float64{}
		for p, v := range byCountry[code] {
			if totals[code] > 0 {
				m[p] = 100 * float64(v) / float64(totals[code])
			}
		}
		out.SharePct[code] = m
	}
	return out
}

// Render prints the per-country protocol mix.
func (f Fig3) Render() string {
	header := []string{"Country"}
	for _, p := range protoOrder {
		header = append(header, p.String())
	}
	tab := &table{header: header}
	for _, code := range f.Order {
		cells := []string{countryName(code)}
		for _, p := range protoOrder {
			cells = append(cells, fmtPct(f.SharePct[code][p]))
		}
		tab.add(cells...)
	}
	return "Figure 3: protocol share per country (% of volume)\n" + tab.String()
}

// Fig4 is the normalized hourly traffic pattern per country.
type Fig4 struct {
	// Normalized[country][hourUTC] is the volume share normalized to the
	// country's peak hour (1.0 at the peak).
	Normalized map[geo.CountryCode][24]float64
}

// BuildFig4 computes the daily trends.
func BuildFig4(ds *analytics.Dataset) Fig4 {
	raw := ds.HourlyVolume()
	out := Fig4{Normalized: map[geo.CountryCode][24]float64{}}
	for code, hours := range raw {
		if code == "" {
			continue
		}
		peak := 0.0
		for _, v := range hours {
			if v > peak {
				peak = v
			}
		}
		var norm [24]float64
		if peak > 0 {
			for h, v := range hours {
				norm[h] = v / peak
			}
		}
		out.Normalized[code] = norm
	}
	return out
}

// PeakHourUTC returns the UTC hour with maximum traffic for a country.
func (f Fig4) PeakHourUTC(code geo.CountryCode) int {
	best, bv := 0, -1.0
	for h, v := range f.Normalized[code] {
		if v > bv {
			best, bv = h, v
		}
	}
	return best
}

// Render sketches each top-6 country's profile.
func (f Fig4) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 4: daily traffic trends per country (normalized to peak, UTC)\n")
	glyphs := []rune(" .:-=+*#%@")
	for _, code := range top6 {
		hours, ok := f.Normalized[code]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "%-14s ", countryName(code))
		for _, v := range hours {
			idx := int(v * float64(len(glyphs)-1))
			sb.WriteRune(glyphs[idx])
		}
		fmt.Fprintf(&sb, "  peak %02d:00 UTC\n", f.PeakHourUTC(code))
	}
	sb.WriteString("               0     6     12    18   (hour)\n")
	return sb.String()
}

// Fig5 is the per-customer daily activity distributions.
type Fig5 struct {
	// Per-customer-day samples by country.
	Flows map[geo.CountryCode]*analytics.Sample // flow counts
	Down  map[geo.CountryCode]*analytics.Sample // download bytes (active customers)
	Up    map[geo.CountryCode]*analytics.Sample // upload bytes (active customers)
}

// BuildFig5 computes the Figure 5 CCDFs. Volumes consider only active
// customer-days (≥250 flows), as the paper does.
func BuildFig5(ds *analytics.Dataset) Fig5 {
	flows := map[geo.CountryCode][]float64{}
	down := map[geo.CountryCode][]float64{}
	up := map[geo.CountryCode][]float64{}
	for _, agg := range ds.GroupByCustomerDay() {
		if agg.Country == "" {
			continue
		}
		flows[agg.Country] = append(flows[agg.Country], float64(agg.Flows))
		if agg.Flows >= analytics.ActiveFlowThreshold {
			down[agg.Country] = append(down[agg.Country], float64(agg.BytesDown))
			up[agg.Country] = append(up[agg.Country], float64(agg.BytesUp))
		}
	}
	out := Fig5{
		Flows: map[geo.CountryCode]*analytics.Sample{},
		Down:  map[geo.CountryCode]*analytics.Sample{},
		Up:    map[geo.CountryCode]*analytics.Sample{},
	}
	for code, xs := range flows {
		out.Flows[code] = analytics.NewSample(xs)
	}
	for code, xs := range down {
		out.Down[code] = analytics.NewSample(xs)
	}
	for code, xs := range up {
		out.Up[code] = analytics.NewSample(xs)
	}
	return out
}

// Render summarizes the three CCDFs at the paper's reference points.
func (f Fig5) Render() string {
	tab := &table{header: []string{"Country", "P(flows<=250)", "median flows", "P(down>10GB)", "P(up>1GB)"}}
	for _, code := range top6 {
		fl, ok := f.Flows[code]
		if !ok {
			continue
		}
		cells := []string{countryName(code),
			fmtPct(100*fl.CDF(250)) + " %",
			fmt.Sprintf("%.0f", fl.Median())}
		if d, ok := f.Down[code]; ok {
			cells = append(cells, fmtPct(100*d.CCDF(10e9))+" %")
		} else {
			cells = append(cells, "-")
		}
		if u, ok := f.Up[code]; ok {
			cells = append(cells, fmtPct(100*u.CCDF(1e9))+" %")
		} else {
			cells = append(cells, "-")
		}
		tab.add(cells...)
	}
	return "Figure 5: per-customer daily flows and volume (CCDF reference points)\n" + tab.String()
}
