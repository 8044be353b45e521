package report

import (
	"strings"

	"satwatch/internal/analytics"
	"satwatch/internal/geo"
	"satwatch/internal/services"
)

// Fig6 is the service-popularity heatmap: the percentage of active
// customers using each service daily, per country.
type Fig6 struct {
	Rows []string // service names, paper row order
	// Pct[service][country] is the measured penetration percentage.
	Pct map[string]map[geo.CountryCode]float64
	// Average per service across the top-6 countries.
	Average map[string]float64
}

// BuildFig6 computes the heatmap from customer-day service usage.
func BuildFig6(ds *analytics.Dataset) Fig6 {
	use, activeDays := ds.ServiceUsersByCountry()
	out := Fig6{Pct: map[string]map[geo.CountryCode]float64{}, Average: map[string]float64{}}
	for _, svc := range services.Intentional() {
		out.Rows = append(out.Rows, svc.Name)
		m := map[geo.CountryCode]float64{}
		var sum float64
		var n int
		for _, code := range top6 {
			if activeDays[code] == 0 {
				continue
			}
			pct := 100 * float64(use[svc.Name][code]) / float64(activeDays[code])
			m[code] = pct
			sum += pct
			n++
		}
		out.Pct[svc.Name] = m
		if n > 0 {
			out.Average[svc.Name] = sum / float64(n)
		}
	}
	return out
}

// Render prints the heatmap as a matrix.
func (f Fig6) Render() string {
	header := []string{"Service"}
	for _, code := range top6 {
		header = append(header, countryName(code))
	}
	header = append(header, "Average")
	tab := &table{header: header}
	for _, svc := range f.Rows {
		cells := []string{svc}
		for _, code := range top6 {
			cells = append(cells, fmtPct(f.Pct[svc][code]))
		}
		cells = append(cells, fmtPct(f.Average[svc]))
		tab.add(cells...)
	}
	return "Figure 6: service popularity (% of active customers per day)\n" + tab.String()
}

// Fig7 is the daily volume per customer per service category.
type Fig7 struct {
	// Boxes[category][country] summarizes the daily down+up bytes of
	// customers that used the category that day.
	Boxes map[services.Category]map[geo.CountryCode]analytics.Boxplot
}

// BuildFig7 computes the category-volume boxplots.
func BuildFig7(ds *analytics.Dataset) Fig7 {
	samples := map[services.Category]map[geo.CountryCode][]float64{}
	for _, agg := range ds.CustomerDays {
		if agg.Country == "" {
			continue
		}
		for cat, bytes := range agg.CategoryBytes {
			if bytes <= 0 {
				continue
			}
			m, ok := samples[cat]
			if !ok {
				m = map[geo.CountryCode][]float64{}
				samples[cat] = m
			}
			m[agg.Country] = append(m[agg.Country], float64(bytes))
		}
	}
	out := Fig7{Boxes: map[services.Category]map[geo.CountryCode]analytics.Boxplot{}}
	for cat, byCountry := range samples {
		m := map[geo.CountryCode]analytics.Boxplot{}
		for code, xs := range byCountry {
			m[code] = analytics.NewSample(xs).Box()
		}
		out.Boxes[cat] = m
	}
	return out
}

// Median returns the median daily volume for (category, country) in bytes.
func (f Fig7) Median(cat services.Category, code geo.CountryCode) float64 {
	return f.Boxes[cat][code].P50
}

// Render prints one boxplot row per (category, country).
func (f Fig7) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: daily volume per customer per service category\n")
	tab := &table{header: []string{"Category", "Country", "P5", "P25", "median", "P75", "P95"}}
	for _, cat := range services.Categories() {
		byCountry, ok := f.Boxes[cat]
		if !ok {
			continue
		}
		for _, code := range top6 {
			b, ok := byCountry[code]
			if !ok {
				continue
			}
			tab.add(string(cat), countryName(code),
				fmtBytes(b.P5), fmtBytes(b.P25), fmtBytes(b.P50), fmtBytes(b.P75), fmtBytes(b.P95))
		}
	}
	sb.WriteString(tab.String())
	return sb.String()
}

// Table3 is the Appendix A service/regex listing.
type Table3 struct {
	Rows []Table3Row
}

// Table3Row is one service of Table 3.
type Table3Row struct {
	Service  string
	Category services.Category
	Patterns []string
}

// BuildTable3 materializes the classifier's rule table.
func BuildTable3() Table3 {
	var t Table3
	for _, svc := range services.Services() {
		t.Rows = append(t.Rows, Table3Row{Service: svc.Name, Category: svc.Category, Patterns: svc.Patterns()})
	}
	return t
}

// Render prints the rule table in the paper's three-column layout.
func (t Table3) Render() string {
	tab := &table{header: []string{"Service", "Regexp", "Category"}}
	for _, r := range t.Rows {
		tab.add(r.Service, "["+strings.Join(r.Patterns, ", ")+"]", string(r.Category))
	}
	return "Table 3: regular expressions used to identify services and categories\n" + tab.String()
}
