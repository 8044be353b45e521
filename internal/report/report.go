// Package report materializes each of the paper's tables and figures from
// an enriched dataset: a typed result struct per experiment (so tests can
// assert on the numbers) plus an ASCII rendering that prints the same
// rows/series the paper reports.
package report

import (
	"fmt"
	"strings"

	"satwatch/internal/geo"
)

// top6 is the paper's presentation order for the detailed analyses.
var top6 = geo.Top6()

// fmtPct renders a percentage with sensible precision.
func fmtPct(p float64) string {
	switch {
	case p == 0:
		return "0"
	case p < 0.1:
		return fmt.Sprintf("%.2f", p)
	default:
		return fmt.Sprintf("%.1f", p)
	}
}

// fmtBytes renders byte volumes human-readably.
func fmtBytes(b float64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.2f TB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f KB", b/1e3)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// fmtMs renders a duration in milliseconds.
func fmtMs(seconds float64) string {
	return fmt.Sprintf("%.1f ms", seconds*1e3)
}

// fmtMbps renders a rate in Mb/s.
func fmtMbps(bps float64) string {
	return fmt.Sprintf("%.1f Mb/s", bps/1e6)
}

// table is a minimal fixed-width table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// countryName resolves a code to the paper's display name.
func countryName(code geo.CountryCode) string {
	if c, ok := geo.ByCode(code); ok {
		return c.Name
	}
	return string(code)
}
