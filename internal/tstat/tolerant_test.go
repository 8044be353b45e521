package tstat

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// corruptFlowTSV renders two good flow rows with garbage injected between
// them: a short row, a row with a broken integer field, and a truncated
// row (the tail of a log cut off by a kill).
func corruptFlowTSV(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []FlowRecord{sampleFlow(), sampleFlow()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected TSV shape: %q", buf.String())
	}
	brokenInt := strings.Replace(lines[1], "\t1234\t", "\tNaN\t", 1)
	truncated := strings.TrimSuffix(lines[2], "\n")
	truncated = truncated[:len(truncated)/2] + "\n"
	return lines[0] + lines[1] + "junk\tfields\n" + brokenInt + lines[2] + truncated
}

func TestReadFlowsTolerantSkipsAndCounts(t *testing.T) {
	in := corruptFlowTSV(t)
	flows, st, err := ReadFlowsTolerant(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("salvaged %d flows, want 2", len(flows))
	}
	if st.Lines != 2 || st.Skipped != 3 {
		t.Fatalf("stats = %+v, want 2 lines / 3 skipped", st)
	}
	// Strict mode fails on the first corrupt line and names it.
	if _, err := ReadFlows(strings.NewReader(in)); err == nil {
		t.Fatal("strict read accepted corrupt input")
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("strict error %q does not name line 3", err)
	}
}

func TestReadFlowsTolerantStillRejectsWrongHeader(t *testing.T) {
	// A wrong header means a wrong file, not a damaged one: tolerant mode
	// must not silently skip an entire foreign TSV.
	if _, _, err := ReadFlowsTolerant(strings.NewReader("alpha\tbeta\n1\t2\n")); err == nil {
		t.Fatal("tolerant read accepted a foreign header")
	}
}

func TestReadDNSTolerantSkipsAndCounts(t *testing.T) {
	var buf bytes.Buffer
	recs := []DNSRecord{
		{Client: sampleFlow().Client, Resolver: sampleFlow().Server, Query: "a.example", T: 1e9},
		{Client: sampleFlow().Client, Resolver: sampleFlow().Server, Query: "b.example", T: 2e9},
	}
	if err := WriteDNS(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	in := lines[0] + lines[1] + "garbage line\n" + lines[2]
	dns, st, err := ReadDNSTolerant(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(dns) != 2 || st.Skipped != 1 {
		t.Fatalf("salvaged %d DNS records with %d skipped, want 2 / 1", len(dns), st.Skipped)
	}
	if _, err := ReadDNS(strings.NewReader(in)); err == nil {
		t.Fatal("strict DNS read accepted corrupt input")
	}
}

// dataLine returns the one data line a single-record TSV holds.
func dataLine(t *testing.T, tsv string) string {
	t.Helper()
	lines := strings.Split(tsv, "\n")
	if len(lines) != 3 || lines[2] != "" {
		t.Fatalf("one record encoded to %d lines: %q", len(lines)-1, tsv)
	}
	return lines[1]
}

// FuzzParseFlowLine: the flow line parser never panics, and a line it
// accepts is one the writer could have written — re-encoded and re-parsed
// it is the same record.
func FuzzParseFlowLine(f *testing.F) {
	var buf bytes.Buffer
	WriteFlows(&buf, []FlowRecord{sampleFlow()})
	good := strings.Split(buf.String(), "\n")[1]
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(strings.Replace(good, "\t1234\t", "\t99999999999999999\t", 1))
	f.Add(strings.Replace(good, "\t90000000\t", "\t9223372036854775807\t", 1))
	f.Add("junk\tfields")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := parseFlowLine(line)
		if err != nil || strings.Contains(line, "\n") {
			return
		}
		var buf bytes.Buffer
		if err := WriteFlows(&buf, []FlowRecord{rec}); err != nil {
			t.Fatal(err)
		}
		again, err := parseFlowLine(dataLine(t, buf.String()))
		if err != nil || !reflect.DeepEqual(rec, again) {
			t.Fatalf("%q parsed to %+v, re-encoded and re-parsed to %+v (%v)", line, rec, again, err)
		}
	})
}

// FuzzParseDNSLine is FuzzParseFlowLine for the DNS log.
func FuzzParseDNSLine(f *testing.F) {
	var buf bytes.Buffer
	WriteDNS(&buf, []DNSRecord{{Client: sampleFlow().Client, Resolver: sampleFlow().Server,
		Query: "a.example", Answer: sampleFlow().Server, T: 1e9, ResponseTime: 6e8}})
	good := strings.Split(buf.String(), "\n")[1]
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(strings.Replace(good, "\t600000", "\t9223372036854775807", 1))
	f.Add(strings.Replace(good, "151.101.1.1\t1000000", "\t1000000", 1))
	f.Add("garbage line")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := parseDNSLine(line)
		if err != nil || strings.Contains(line, "\n") {
			return
		}
		var buf bytes.Buffer
		if err := WriteDNS(&buf, []DNSRecord{rec}); err != nil {
			t.Fatal(err)
		}
		again, err := parseDNSLine(dataLine(t, buf.String()))
		if err != nil || rec != again {
			t.Fatalf("%q parsed to %+v, re-encoded and re-parsed to %+v (%v)", line, rec, again, err)
		}
	})
}
