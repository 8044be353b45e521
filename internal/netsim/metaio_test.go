package netsim

import (
	"bytes"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"satwatch/internal/geo"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

func TestMetaRoundTrip(t *testing.T) {
	in := map[netip.Addr]CustomerMeta{
		netip.MustParseAddr("77.1.2.3"): {Country: "CD", Beam: 2, Type: workload.CommunityAP, PlanMbs: 10, Multiplex: 25, Resolver: "Google"},
		netip.MustParseAddr("77.1.2.4"): {Country: "ES", Beam: 11, Type: workload.Residential, PlanMbs: 50, Multiplex: 1, Resolver: "Operator-EU"},
	}
	var buf bytes.Buffer
	if err := WriteMeta(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, st, err := readMeta(&buf)
	if err != nil || st.First != nil {
		t.Fatal(err, st.First)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%v\nout=%v", in, out)
	}
}

func TestMetaWriteDeterministic(t *testing.T) {
	in := map[netip.Addr]CustomerMeta{}
	for i := 0; i < 50; i++ {
		in[netip.AddrFrom4([4]byte{77, 0, byte(i), 1})] = CustomerMeta{Country: "GB", Beam: i}
	}
	var a, b bytes.Buffer
	WriteMeta(&a, in)
	WriteMeta(&b, in)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("map-order leakage in meta serialization")
	}
}

func TestMetaRejectsGarbage(t *testing.T) {
	if _, _, err := readMeta(strings.NewReader("nope\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	bad := metaHeader + "\nnot-an-ip\tCD\t1\t0\t10\t1\tGoogle\n"
	if _, st, _ := readMeta(strings.NewReader(bad)); st.First == nil {
		t.Fatal("bad address accepted")
	}
	short := metaHeader + "\n1.2.3.4\tCD\n"
	if _, st, _ := readMeta(strings.NewReader(short)); st.First == nil {
		t.Fatal("short row accepted")
	}
}

func TestMetaTolerantSkipsAndCounts(t *testing.T) {
	in := map[netip.Addr]CustomerMeta{
		netip.MustParseAddr("77.1.2.3"): {Country: "CD", Beam: 2, Type: workload.Residential, PlanMbs: 10, Multiplex: 1, Resolver: "Google"},
		netip.MustParseAddr("77.1.2.4"): {Country: "ES", Beam: 11, Type: workload.Residential, PlanMbs: 50, Multiplex: 1, Resolver: "Operator-EU"},
	}
	var buf bytes.Buffer
	if err := WriteMeta(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	damaged := lines[0] + lines[1] + "not-an-ip\tCD\t1\t0\t10\t1\tGoogle\n" + lines[2][:len(lines[2])/2] + "\n"
	out, st, err := readMeta(strings.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || st.Lines != 1 || st.Skipped != 2 {
		t.Fatalf("salvage: %d rows, stats %+v, want 1 row / 1 line / 2 skipped", len(out), st)
	}
	// Tolerance covers damaged rows, not foreign files.
	if _, _, err := readMeta(strings.NewReader("alpha\tbeta\n1\t2\n")); err == nil {
		t.Fatal("tolerant meta read accepted a foreign header")
	}
}

func TestPrefixRoundTrip(t *testing.T) {
	in := map[netip.Prefix]geo.CountryCode{
		netip.MustParsePrefix("77.16.0.0/16"): "CD",
		netip.MustParsePrefix("77.20.0.0/16"): "ES",
	}
	var buf bytes.Buffer
	if err := WritePrefixes(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, st, err := readPrefixes(&buf)
	if err != nil || st.First != nil {
		t.Fatal(err, st.First)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("prefix round trip mismatch")
	}
	if _, _, err := readPrefixes(strings.NewReader("bad\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

// TestPrefixOverlapSkipped: CountryOf returns the first prefix of a map
// range that contains the address, so two overlapping rows would let one
// address resolve to a different country on each call. The reader keeps
// the first row, and skips and counts one that overlaps or repeats it.
func TestPrefixOverlapSkipped(t *testing.T) {
	tsv := prefixHeader + "\n77.16.0.0/16\tCD\n77.16.4.0/24\tES\n77.16.0.0/16\tNG\n"
	out, st, err := readPrefixes(strings.NewReader(tsv))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[netip.MustParsePrefix("77.16.0.0/16")] != "CD" {
		t.Fatalf("kept %v, want only the first row", out)
	}
	if st.Skipped != 2 || st.First == nil || !strings.Contains(st.First.Error(), "line 3:") {
		t.Fatalf("skipped %d (first: %v), want the overlapping row (line 3) and the repeat", st.Skipped, st.First)
	}
	addr := netip.MustParseAddr("77.16.4.9")
	for i := 0; i < 50; i++ {
		if code, ok := CountryOf(out, addr); !ok || code != "CD" {
			t.Fatalf("call %d: CountryOf = %q, %v, want CD", i, code, ok)
		}
	}
}

// TestBeamsRoundTrip: the beam table comes back bit for bit, whatever
// the utilization's last bits; a row out of beam order, a non-finite
// utilization or a wrong field count is a corrupt line.
func TestBeamsRoundTrip(t *testing.T) {
	in := []BeamStat{
		{Beam: 0, Country: "CD", PeakUtil: 0.1 + 0.2},
		{Beam: 3, Country: "NG", PeakUtil: 1.0 / 3},
		{Beam: 5, Country: "NG", PeakUtil: 0},
		{Beam: 7, Country: "ZA", PeakUtil: math.Nextafter(1, 2)},
		{Beam: 20, Country: "GH", PeakUtil: math.SmallestNonzeroFloat64},
	}
	var buf bytes.Buffer
	if err := writeBeams(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, st, err := readBeams(&buf)
	if err != nil || st.First != nil {
		t.Fatal(err, st.First)
	}
	if len(out) != len(in) {
		t.Fatalf("read back %d beams, wrote %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Beam != in[i].Beam || out[i].Country != in[i].Country ||
			math.Float64bits(out[i].PeakUtil) != math.Float64bits(in[i].PeakUtil) {
			t.Fatalf("row %d: wrote %+v, read %+v", i, in[i], out[i])
		}
	}
	for _, bad := range []string{"3\tNG\t0.5", "9\tNG\tNaN", "9\tNG\t+Inf", "9\tNG", "x\tNG\t0.5"} {
		tsv := beamHeader + "\n4\tNG\t0.5\n" + bad + "\n"
		if _, st, _ := readBeams(strings.NewReader(tsv)); st.First == nil || !strings.Contains(st.First.Error(), "line 3:") {
			t.Errorf("row %q after beam 4 accepted (%v)", bad, st.First)
		}
	}
	if _, _, err := readBeams(strings.NewReader("beam\tutil\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

// TestFullOutputRoundTrip saves a run the way the CLIs do and loads it
// back the way satreport -from does, then damages one line to check the
// strict/tolerant split.
func TestFullOutputRoundTrip(t *testing.T) {
	out := smallRun(t)
	dir := t.TempDir()
	paths, err := WriteLogs(dir, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(LogNames) || filepath.Base(paths[0]) != "flows.tsv" {
		t.Fatalf("WriteLogs returned %v, want the LogNames in order", paths)
	}
	back, skipped, err := ReadLogs(dir, true)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadLogs: skipped %d, err %v", skipped, err)
	}
	if len(back.Flows) != len(out.Flows) || len(back.DNS) != len(out.DNS) {
		t.Fatalf("read back %d flows, %d DNS; wrote %d, %d", len(back.Flows), len(back.DNS), len(out.Flows), len(out.DNS))
	}
	if !reflect.DeepEqual(out.Meta, back.Meta) {
		t.Fatal("simulation metadata did not survive disk round trip")
	}
	if !reflect.DeepEqual(out.CountryPrefixes, back.CountryPrefixes) {
		t.Fatal("prefixes did not survive disk round trip")
	}
	if len(out.Beams) == 0 || !reflect.DeepEqual(out.Beams, back.Beams) {
		t.Fatal("beam loads did not survive disk round trip")
	}

	f, err := os.OpenFile(paths[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("a torn line\n")
	f.Close()
	if _, _, err := ReadLogs(dir, true); err == nil {
		t.Error("strict ReadLogs accepted a corrupt flow line")
	}
	back, skipped, err = ReadLogs(dir, false)
	if err != nil || skipped != 1 || len(back.Flows) != len(out.Flows) {
		t.Errorf("tolerant ReadLogs: %d flows, skipped %d, err %v; want %d, 1, nil", len(back.Flows), skipped, err, len(out.Flows))
	}
}

// TestOutputDays: the observation window read off the records counts the
// day of the latest one, whichever log it is in, and matches the Days of
// the run that wrote them.
func TestOutputDays(t *testing.T) {
	const day = 24 * time.Hour
	for _, tc := range []struct {
		flow, dns time.Duration
		want      int
	}{
		{0, 0, 1},
		{day - time.Microsecond, 0, 1},
		{day - time.Microsecond, day, 2},
		{2*day - time.Microsecond, time.Hour, 2},
	} {
		o := &Output{Flows: []tstat.FlowRecord{{Start: time.Hour}, {Start: tc.flow}}, DNS: []tstat.DNSRecord{{T: tc.dns}}}
		if got := o.Days(); got != tc.want {
			t.Errorf("latest flow %v, DNS %v: Days() = %d, want %d", tc.flow, tc.dns, got, tc.want)
		}
	}
	if got := (&Output{}).Days(); got != 1 {
		t.Errorf("empty output: Days() = %d, want 1", got)
	}
	if got := smallRun(t).Days(); got != 1 {
		t.Errorf("1-day run: Days() = %d", got)
	}
	out, err := Run(Config{Customers: 10, Days: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Days(); got != 3 {
		t.Errorf("3-day run: Days() = %d", got)
	}
}

// FuzzParseMetaLine: the metadata line parser never panics, and a line it
// accepts is one WriteMeta could have written — re-encoded and re-parsed
// it is the same row.
func FuzzParseMetaLine(f *testing.F) {
	good := "77.1.2.3\tCD\t2\t1\t10\t25\tGoogle"
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(strings.Replace(good, "\t10\t", "\tNaN\t", 1))
	f.Add(strings.Replace(good, "\t10\t", "\t0x1p-2\t", 1))
	f.Add("not-an-ip\tCD\t1\t0\t10\t1\tGoogle")
	f.Fuzz(func(t *testing.T, line string) {
		addr, m, err := parseMetaLine(line)
		if err != nil || strings.Contains(line, "\n") {
			return
		}
		var buf bytes.Buffer
		if err := WriteMeta(&buf, map[netip.Addr]CustomerMeta{addr: m}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		if len(lines) != 3 {
			t.Fatalf("one row encoded to %q", buf.String())
		}
		addr2, m2, err := parseMetaLine(lines[1])
		if err != nil || addr2 != addr || m2 != m {
			t.Fatalf("%q parsed to %v %+v, re-encoded and re-parsed to %v %+v (%v)", line, addr, m, addr2, m2, err)
		}
	})
}
