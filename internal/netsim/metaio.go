package netsim

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/obs"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// Metadata serialization: the operator-side join table (anonymized client →
// country/beam/plan/archetype/resolver, plus the anonymized country
// prefixes) and the per-beam load table. Persisting them alongside the
// flow/DNS logs makes a simulation output fully re-analyzable from disk —
// the paper's pipeline, where the probe writes logs at the ground station
// and the Hadoop cluster joins them with operator metadata later (§3.1).

const metaHeader = "client\tcountry\tbeam\ttype\tplan_mbps\tmultiplex\tresolver"
const prefixHeader = "prefix\tcountry"
const beamHeader = "beam\tcountry\tpeak_util"

// LogNames are the files a run's logs are saved as and re-analyzed from.
var LogNames = []string{"flows.tsv", "dns.tsv", "meta.tsv", "prefixes.tsv", "beams.tsv"}

// WriteLog serializes one of the run's logs, named as in LogNames.
func (o *Output) WriteLog(name string, w io.Writer) error {
	switch name {
	case "flows.tsv":
		return tstat.WriteFlows(w, o.Flows)
	case "dns.tsv":
		return tstat.WriteDNS(w, o.DNS)
	case "meta.tsv":
		return WriteMeta(w, o.Meta)
	case "prefixes.tsv":
		return WritePrefixes(w, o.CountryPrefixes)
	case "beams.tsv":
		return writeBeams(w, o.Beams)
	}
	return fmt.Errorf("netsim: no log named %q", name)
}

// WriteLogs saves every log into dir, each atomically, and returns their
// paths in LogNames order.
func WriteLogs(dir string, o *Output) ([]string, error) {
	var paths []string
	for _, name := range LogNames {
		path := filepath.Join(dir, name)
		if err := obs.WriteFileAtomic(path, func(w io.Writer) error { return o.WriteLog(name, w) }); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// parseLog parses one of the run's logs, named as in LogNames, into o.
func (o *Output) parseLog(name string, r io.Reader) (st obs.ReadStats, err error) {
	switch name {
	case "flows.tsv":
		o.Flows, st, err = tstat.ReadFlowsTolerant(r)
	case "dns.tsv":
		o.DNS, st, err = tstat.ReadDNSTolerant(r)
	case "meta.tsv":
		o.Meta, st, err = readMeta(r)
	case "prefixes.tsv":
		o.CountryPrefixes, st, err = readPrefixes(r)
	case "beams.tsv":
		o.Beams, st, err = readBeams(r)
	default:
		err = fmt.Errorf("netsim: no log named %q", name)
	}
	return st, err
}

// ReadLogs loads the logs WriteLogs saved in dir — the paper's offline
// pipeline, where the probe writes at the ground station and the cluster
// analyzes later. Corrupt lines are skipped and counted (obs.ReadLines)
// and returned as skipped, the salvage path for logs out of an
// interrupted run; strict fails on the first one instead.
func ReadLogs(dir string, strict bool) (o *Output, skipped int, err error) {
	o = &Output{}
	for _, name := range LogNames {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, err
		}
		st, err := o.parseLog(name, f)
		f.Close()
		// The prefix and beam tables are never salvaged: a few dozen
		// operator-written lines that whole tables depend on.
		if err == nil && (strict || name == "prefixes.tsv" || name == "beams.tsv") {
			err = st.First
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		skipped += st.Skipped
	}
	return o, skipped, nil
}

// Days is the observation window the records span, in whole days: up to
// the day of the latest flow start or DNS transaction, and at least one.
// The logs carry no run config, so a reader derives the window here
// rather than trusting a count given beside them.
func (o *Output) Days() int {
	var last time.Duration
	for i := range o.Flows {
		last = max(last, o.Flows[i].Start)
	}
	for i := range o.DNS {
		last = max(last, o.DNS[i].T)
	}
	return int(last/(24*time.Hour)) + 1
}

// WriteMeta writes the customer metadata table as TSV.
func WriteMeta(w io.Writer, meta map[netip.Addr]CustomerMeta) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, metaHeader); err != nil {
		return err
	}
	// Deterministic order.
	addrs := make([]netip.Addr, 0, len(meta))
	for a := range meta {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	for _, a := range addrs {
		m := meta[a]
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%g\t%d\t%s\n",
			a, m.Country, m.Beam, m.Type, m.PlanMbs, m.Multiplex, m.Resolver); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseMetaLine parses one data line of the customer metadata TSV.
func parseMetaLine(text string) (netip.Addr, CustomerMeta, error) {
	var m CustomerMeta
	f := strings.Split(text, "\t")
	if len(f) != 7 {
		return netip.Addr{}, m, fmt.Errorf("%d fields, want 7", len(f))
	}
	addr, err := netip.ParseAddr(f[0])
	if err != nil {
		return netip.Addr{}, m, err
	}
	beam, err := strconv.Atoi(f[2])
	if err != nil {
		return netip.Addr{}, m, err
	}
	typ, err := strconv.Atoi(f[3])
	if err != nil {
		return netip.Addr{}, m, err
	}
	plan, err := strconv.ParseFloat(f[4], 64)
	if err == nil && (math.IsNaN(plan) || math.IsInf(plan, 0)) {
		err = fmt.Errorf("plan %v", plan)
	}
	if err != nil {
		return netip.Addr{}, m, err
	}
	mux, err := strconv.Atoi(f[5])
	if err != nil {
		return netip.Addr{}, m, err
	}
	m = CustomerMeta{
		Country:   geo.CountryCode(f[1]),
		Beam:      beam,
		Type:      workload.CustomerType(typ),
		PlanMbs:   plan,
		Multiplex: mux,
		Resolver:  dnssim.ResolverID(f[6]),
	}
	return addr, m, nil
}

// readMeta parses a TSV written by WriteMeta, skipping and counting
// corrupt lines.
func readMeta(r io.Reader) (map[netip.Addr]CustomerMeta, obs.ReadStats, error) {
	out := map[netip.Addr]CustomerMeta{}
	st, err := obs.ReadLines(r, "netsim: meta", metaHeader, func(line []byte) error {
		addr, m, err := parseMetaLine(string(line))
		if err == nil {
			out[addr] = m
		}
		return err
	})
	return out, st, err
}

// WritePrefixes writes the anonymized country-prefix table as TSV.
func WritePrefixes(w io.Writer, prefixes map[netip.Prefix]geo.CountryCode) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, prefixHeader); err != nil {
		return err
	}
	ps := make([]netip.Prefix, 0, len(prefixes))
	for p := range prefixes {
		ps = append(ps, p)
	}
	sortPrefixes(ps)
	for _, p := range ps {
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", p, prefixes[p]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readPrefixes parses a TSV written by WritePrefixes. A row whose prefix
// overlaps or repeats an earlier row's is rejected like a corrupt line:
// CountryOf's answer must not depend on map order.
func readPrefixes(r io.Reader) (map[netip.Prefix]geo.CountryCode, obs.ReadStats, error) {
	out := map[netip.Prefix]geo.CountryCode{}
	st, err := obs.ReadLines(r, "netsim: prefix", prefixHeader, func(line []byte) error {
		f := strings.Split(string(line), "\t")
		if len(f) != 2 {
			return fmt.Errorf("%d fields", len(f))
		}
		p, err := netip.ParsePrefix(f[0])
		if err != nil {
			return err
		}
		for q := range out {
			if p.Overlaps(q) {
				return fmt.Errorf("prefix %s overlaps %s", p, q)
			}
		}
		out[p] = geo.CountryCode(f[1])
		return nil
	})
	return out, st, err
}

// writeBeams writes the per-beam load table as TSV, one row per beam in
// Output.Beams order (beam ID). Utilizations are written in the shortest
// form that parses back to the same float64, so a replayed Figure 8b is
// the run's.
func writeBeams(w io.Writer, beams []BeamStat) error {
	bw := bufio.NewWriter(w) // its first write error sticks, for Flush
	fmt.Fprintln(bw, beamHeader)
	for _, b := range beams {
		fmt.Fprintf(bw, "%d\t%s\t%s\n", b.Beam, b.Country, strconv.FormatFloat(b.PeakUtil, 'g', -1, 64))
	}
	return bw.Flush()
}

// readBeams parses a TSV written by writeBeams. A row whose beam ID does
// not follow the previous row's is rejected like a corrupt line: the
// table is ordered by beam ID, one row per beam.
func readBeams(r io.Reader) ([]BeamStat, obs.ReadStats, error) {
	var out []BeamStat
	st, err := obs.ReadLines(r, "netsim: beam", beamHeader, func(line []byte) error {
		f := strings.Split(string(line), "\t")
		if len(f) != 3 {
			return fmt.Errorf("%d fields, want 3", len(f))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return err
		}
		if n := len(out); n > 0 && id <= out[n-1].Beam {
			return fmt.Errorf("beam %d after beam %d", id, out[n-1].Beam)
		}
		util, err := strconv.ParseFloat(f[2], 64)
		if err == nil && (math.IsNaN(util) || math.IsInf(util, 0)) {
			err = fmt.Errorf("peak utilization %v", util)
		}
		if err != nil {
			return err
		}
		out = append(out, BeamStat{Beam: id, Country: geo.CountryCode(f[1]), PeakUtil: util})
		return nil
	})
	return out, st, err
}

func sortAddrs(addrs []netip.Addr) {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}
