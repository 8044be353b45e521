package satwatch

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"satwatch/internal/geo"
	"satwatch/internal/live"
	"satwatch/internal/netsim"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
)

// salvageFormat is one log the toolchain reads back after a crash: where
// its own writer left a file of salvageRecords records, and how the tools
// read it. read renders each record it returns; under strict it is the
// -strict read.
type salvageFormat struct {
	name   string
	path   string
	header bool
	// jsonl: a record cut short never parses. A TSV row cut inside its last
	// field still does — the formats carry no checksum.
	jsonl bool
	// strictOnly: the tools never salvage this file (prefixes.tsv,
	// beams.tsv); a damaged line fails the read, naming the file.
	strictOnly bool
	read       func(strict bool) (recs []string, skipped int, err error)
}

const salvageRecords = 3

func salvageFormats(t *testing.T) []salvageFormat {
	t.Helper()
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{77, 1, 2, byte(3 + i)}) }
	out := &netsim.Output{Meta: map[netip.Addr]netsim.CustomerMeta{}, CountryPrefixes: map[netip.Prefix]geo.CountryCode{}}
	for i := 0; i < salvageRecords; i++ {
		at := time.Duration(i+1) * time.Second
		out.Flows = append(out.Flows, tstat.FlowRecord{
			Client: addr(i), Server: netip.MustParseAddr("151.101.1.1"), CPort: 40000, SPort: 443,
			Proto: tstat.ProtoHTTPS, Domain: "d.example", Start: at, End: at + time.Second,
			BytesUp: 1234, BytesDown: 567890, PktsUp: 12, PktsDown: 420,
			First10:   []time.Duration{at, at + 20*time.Millisecond},
			GroundRTT: tstat.RTTStats{Samples: 5, Min: 10e6, Avg: 12e6, Max: 20e6, Std: 3e6}, SatRTT: 612e6,
		})
		out.DNS = append(out.DNS, tstat.DNSRecord{Client: addr(i), Resolver: netip.MustParseAddr("8.8.8.8"),
			Query: "d.example", Answer: netip.MustParseAddr("151.101.1.1"), T: at, ResponseTime: 600e6})
		out.Meta[addr(i)] = netsim.CustomerMeta{Country: "CD", Beam: 2 + i, PlanMbs: 10, Multiplex: 25, Resolver: "Google"}
		out.CountryPrefixes[netip.PrefixFrom(netip.AddrFrom4([4]byte{77, byte(16 + i), 0, 0}), 16)] = "CD"
		out.Beams = append(out.Beams, netsim.BeamStat{Beam: 2 + i, Country: "CD", PeakUtil: 0.1 * float64(i+1)})
	}
	logs := t.TempDir()
	if _, err := netsim.WriteLogs(logs, out); err != nil {
		t.Fatal(err)
	}
	render := map[string]func(o *netsim.Output) []string{
		"flows.tsv":    func(o *netsim.Output) []string { return rendered(o.Flows) },
		"dns.tsv":      func(o *netsim.Output) []string { return rendered(o.DNS) },
		"meta.tsv":     func(o *netsim.Output) []string { return renderedMap(o.Meta) },
		"prefixes.tsv": func(o *netsim.Output) []string { return renderedMap(o.CountryPrefixes) },
		"beams.tsv":    func(o *netsim.Output) []string { return rendered(o.Beams) },
	}
	var formats []salvageFormat
	for _, name := range netsim.LogNames {
		name := name
		formats = append(formats, salvageFormat{
			name: name, path: filepath.Join(logs, name), header: true, strictOnly: name == "prefixes.tsv" || name == "beams.tsv",
			read: func(strict bool) ([]string, int, error) {
				o, skipped, err := netsim.ReadLogs(logs, strict)
				if err != nil {
					return nil, 0, err
				}
				return render[name](o), skipped, nil
			},
		})
	}

	traceDir := t.TempDir()
	tw, err := trace.NewRotatingWriter(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	history, _, _, err := live.OpenHistory(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < salvageRecords; i++ {
		f := &trace.Flow{Customer: i, Index: i}
		f.SetMeta(1, "IT", 9, "TCP/HTTPS", "x.test", time.Duration(i)*time.Second)
		f.Span(trace.SpanLiveSynth, trace.SegProbe, 2*time.Millisecond, nil)
		f.SetTotal(550 * time.Millisecond)
		if _, err := tw.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := history.Append(salvageWindow(i)); err != nil {
			t.Fatal(err)
		}
	}
	tw.Close()
	history.Close()
	return append(formats,
		salvageFormat{name: "trace.jsonl", path: tw.Current(), jsonl: true,
			read: func(strict bool) ([]string, int, error) {
				flows, st, err := trace.ReadFilesTolerant([]string{tw.Current()})
				if strict {
					flows, err = trace.ReadFiles([]string{tw.Current()})
				}
				return rendered(flows), st.Skipped, err
			}},
		salvageFormat{name: live.HistoryFileName, path: history.Path(), jsonl: true,
			read: func(strict bool) ([]string, int, error) {
				ws, st, err := live.ReadHistoryFile(history.Path())
				if err == nil && strict {
					err = st.First
				}
				return rendered(ws), st.Skipped, err
			}},
	)
}

func salvageWindow(i int) live.WindowSummary {
	return live.WindowSummary{
		Start: time.Duration(i) * 10 * time.Minute, End: time.Duration(i+1) * 10 * time.Minute,
		Flows: int64(10 + i), DNS: 3, BytesUp: 100, BytesDown: 1000,
		BytesByCountry: map[string]int64{"IT": 600, "NG": 500},
		RTTSamples:     4, RTTMeanMs: 552.5, RTTMaxMs: 750,
	}
}

// rendered is one comparable, printable string per record.
func rendered[T any](recs []T) (out []string) {
	for _, r := range recs {
		out = append(out, fmt.Sprint(r))
	}
	return out
}

// renderedMap renders a map log in key order, the order its writer uses.
func renderedMap[K comparable, V any](m map[K]V) (out []string) {
	for k, v := range m {
		out = append(out, fmt.Sprint(k, v))
	}
	sort.Strings(out)
	return out
}

// TestSalvageAtEveryOffset is crash injection on the read side (ROADMAP
// 6d): each of the seven logs, written by its own writer, is cut at every
// byte offset of its last record — what a kill mid-write leaves — and once
// given the 5 MiB NUL tail of a power cut. The tolerant read must return
// the intact records, skip at most the torn one and not fail; the strict
// read must fail exactly when something was skipped, naming the line. A
// history log must also take an append after the cut and give back every
// window it ever returned or accepted.
func TestSalvageAtEveryOffset(t *testing.T) {
	for _, f := range salvageFormats(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			data, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(f.path, data, 0o644) // the five TSVs are read as a set
			want, skipped, err := f.read(false)
			if err != nil || skipped != 0 || len(want) != salvageRecords {
				t.Fatalf("clean read: %d records, %d skipped, err %v", len(want), skipped, err)
			}
			lastLine := salvageRecords
			if f.header {
				lastLine++
			}
			lastStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1

			// What a damaged file holds after the intact records.
			const (
				nothing = iota
				tornRecord
				completeRecord
				completeRecordThenNULs
			)
			check := func(damaged []byte, tail int) []string {
				t.Helper()
				if err := os.WriteFile(f.path, damaged, 0o644); err != nil {
					t.Fatal(err)
				}
				got, skipped, err := f.read(false)
				_, _, strictErr := f.read(true)
				badLine := lastLine
				if tail == completeRecordThenNULs {
					badLine++
				}
				if f.strictOnly && err != nil {
					if tail == nothing || tail == completeRecord || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", badLine)) ||
						!strings.Contains(err.Error(), f.name) {
						t.Fatalf("never-salvaged log: err %v, want nil or %s line %d", err, f.name, badLine)
					}
					return nil
				}
				if err != nil {
					t.Fatalf("tolerant read failed: %v", err)
				}
				accepted := len(got) - (salvageRecords - 1)
				if accepted < 0 || !reflect.DeepEqual(got[:salvageRecords-1], want[:salvageRecords-1]) {
					t.Fatalf("intact records lost or changed: %q", got)
				}
				wantSkipped := 0
				switch tail {
				case nothing:
					if accepted != 0 {
						t.Fatalf("a record out of nowhere: %q", got)
					}
				case tornRecord:
					if accepted > 1 || (accepted == 1 && f.jsonl) {
						t.Fatalf("a cut record was accepted: %q", got)
					}
					wantSkipped = 1 - accepted
				case completeRecordThenNULs:
					wantSkipped = 1
					fallthrough
				case completeRecord:
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("complete last record not returned as written: %q", got)
					}
				}
				if skipped != wantSkipped || (strictErr != nil) != (skipped > 0) {
					t.Fatalf("%d skipped (want %d), strict err %v", skipped, wantSkipped, strictErr)
				}
				if strictErr != nil && !strings.Contains(strictErr.Error(), fmt.Sprintf("line %d:", badLine)) {
					t.Fatalf("strict err %q does not name line %d", strictErr, badLine)
				}
				return got
			}

			for cut := lastStart; cut <= len(data); cut++ {
				tail := tornRecord
				switch {
				case cut == lastStart:
					tail = nothing
				case cut >= len(data)-1: // losing only the final newline loses nothing
					tail = completeRecord
				}
				got := check(data[:cut], tail)
				if f.name != live.HistoryFileName {
					continue
				}
				// The daemon's restart: replay, append, and a later replay.
				h, prior, _, err := live.OpenHistory(filepath.Dir(f.path))
				if err != nil || !reflect.DeepEqual(rendered(prior), got) {
					t.Fatalf("cut %d: restart replayed %q (%v), want %q", cut, rendered(prior), err, got)
				}
				next := salvageWindow(salvageRecords)
				if err := h.Append(next); err != nil {
					t.Fatal(err)
				}
				h.Close()
				again, _, err := live.ReadHistoryFile(f.path)
				if acked := append(got, rendered([]live.WindowSummary{next})...); err != nil ||
					!reflect.DeepEqual(rendered(again), acked) {
					t.Fatalf("cut %d: after restart+append the log holds %q (%v), want %q", cut, rendered(again), err, acked)
				}
			}
			check(append(append([]byte(nil), data...), make([]byte, 5<<20)...), completeRecordThenNULs)
		})
	}
}
