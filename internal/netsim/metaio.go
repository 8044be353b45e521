package netsim

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/obs"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// Metadata serialization: the operator-side join table (anonymized client →
// country/beam/plan/archetype/resolver, plus the anonymized country
// prefixes). Persisting it alongside the flow/DNS logs makes a simulation
// output fully re-analyzable from disk — the paper's pipeline, where the
// probe writes logs at the ground station and the Hadoop cluster joins
// them with operator metadata later (§3.1).

const metaHeader = "client\tcountry\tbeam\ttype\tplan_mbps\tmultiplex\tresolver"
const prefixHeader = "prefix\tcountry"

// LogNames are the files a run's logs are saved as and re-analyzed from.
var LogNames = []string{"flows.tsv", "dns.tsv", "meta.tsv", "prefixes.tsv"}

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

// ReadLogs loads the logs WriteLogs saved in dir — the paper's offline
// pipeline, where the probe writes at the ground station and the cluster
// analyzes later. Unless strict, corrupt lines are skipped, counted into
// netsim_rows_skipped_total and returned as skipped: the salvage path for
// logs out of an interrupted run.
func ReadLogs(dir string, strict bool) (o *Output, skipped int, err error) {
	o = &Output{}
	if o.Flows, err = readLog(dir, "flows.tsv", strict, &skipped, tstat.ReadFlows, tstat.ReadFlowsTolerant); err != nil {
		return nil, 0, err
	}
	if o.DNS, err = readLog(dir, "dns.tsv", strict, &skipped, tstat.ReadDNS, tstat.ReadDNSTolerant); err != nil {
		return nil, 0, err
	}
	if o.Meta, err = readLog(dir, "meta.tsv", strict, &skipped, ReadMeta, ReadMetaTolerant); err != nil {
		return nil, 0, err
	}
	// The prefix table has no tolerant reader: a dozen operator-written
	// lines every other join depends on.
	if o.CountryPrefixes, err = readLog(dir, "prefixes.tsv", true, &skipped, ReadPrefixes, nil); err != nil {
		return nil, 0, err
	}
	CountSkippedRows(skipped)
	return o, skipped, nil
}

func readLog[T any](dir, name string, strict bool, skipped *int,
	read func(io.Reader) (T, error), tolerant func(io.Reader) (T, tstat.ReadStats, error)) (T, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	if strict {
		return read(f)
	}
	v, st, err := tolerant(f)
	*skipped += st.Skipped
	return v, err
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

// readMeta is the shared scanner behind ReadMeta/ReadMetaTolerant.
func readMeta(r io.Reader, strict bool) (map[netip.Addr]CustomerMeta, tstat.ReadStats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := map[netip.Addr]CustomerMeta{}
	var st tstat.ReadStats
	first := true
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if first {
			first = false
			if text != metaHeader {
				return nil, st, fmt.Errorf("netsim: meta line 1: unexpected header")
			}
			continue
		}
		if text == "" {
			continue
		}
		addr, m, err := parseMetaLine(text)
		if err != nil {
			if strict {
				return nil, st, fmt.Errorf("netsim: meta line %d: %w", line, err)
			}
			st.Skipped++
			continue
		}
		st.Lines++
		out[addr] = m
	}
	return out, st, sc.Err()
}

// ReadMeta parses a TSV written by WriteMeta, failing on the first
// corrupt line.
func ReadMeta(r io.Reader) (map[netip.Addr]CustomerMeta, error) {
	out, _, err := readMeta(r, true)
	return out, err
}

// ReadMetaTolerant parses a TSV written by WriteMeta, skipping and
// counting corrupt lines.
func ReadMetaTolerant(r io.Reader) (map[netip.Addr]CustomerMeta, tstat.ReadStats, error) {
	return readMeta(r, false)
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

// ReadPrefixes parses a TSV written by WritePrefixes.
func ReadPrefixes(r io.Reader) (map[netip.Prefix]geo.CountryCode, error) {
	sc := bufio.NewScanner(r)
	out := map[netip.Prefix]geo.CountryCode{}
	first := true
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if first {
			first = false
			if text != prefixHeader {
				return nil, fmt.Errorf("netsim: prefix line 1: unexpected header")
			}
			continue
		}
		if text == "" {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 2 {
			return nil, fmt.Errorf("netsim: prefix line %d: %d fields", line, len(f))
		}
		p, err := netip.ParsePrefix(f[0])
		if err != nil {
			return nil, fmt.Errorf("netsim: prefix line %d: %w", line, err)
		}
		out[p] = geo.CountryCode(f[1])
	}
	return out, sc.Err()
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
