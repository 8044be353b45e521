package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tempLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.tsv")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "col\nval\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "col\nval\n" {
		t.Fatalf("content = %q", got)
	}
	if tmps := tempLeftovers(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}

	// Overwrite keeps the old file intact until the rename lands.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v2\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2\n" {
		t.Fatalf("overwrite content = %q", got)
	}
}

func TestWriteFileAtomicErrorLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.tsv")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half a row")
		return fmt.Errorf("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("write error not surfaced: %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("failed write left %s behind", path)
	}
	if tmps := tempLeftovers(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}

	// A failed overwrite must not clobber the existing file.
	if err := os.WriteFile(path, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return fmt.Errorf("boom again")
	}); err == nil {
		t.Fatal("expected error")
	}
	if got, _ := os.ReadFile(path); string(got) != "keep\n" {
		t.Fatalf("failed overwrite clobbered file: %q", got)
	}
}

// linesOf runs ReadLines with a parser that rejects lines starting with
// '!' and returns what it accepted.
func linesOf(in, header string) ([]string, ReadStats, error) {
	var got []string
	st, err := ReadLines(strings.NewReader(in), "test:", header, func(b []byte) error {
		if b[0] == '!' {
			return fmt.Errorf("bang")
		}
		got = append(got, string(b))
		return nil
	})
	return got, st, err
}

func TestReadLinesPolicy(t *testing.T) {
	big := strings.Repeat("x", MaxLineBytes)
	cases := []struct {
		name, in, header string
		want             []string
		skipped          int
		first            string // substring of ReadStats.First
		err              string // substring of the returned error
	}{
		{name: "empty"},
		{name: "empty with header", header: "h"},
		{name: "header only", in: "h\n", header: "h"},
		{name: "wrong header", in: "g\na\n", header: "h", err: "test: line 1: unexpected header"},
		{name: "blank first line is a wrong header", in: "\nh\n", header: "h", err: "line 1"},
		{name: "clean", in: "h\na\nb\n", header: "h", want: []string{"a", "b"}},
		{name: "no header wanted", in: "a\nb\n", want: []string{"a", "b"}},
		{name: "no trailing newline", in: "a\nb", want: []string{"a", "b"}},
		{name: "CRLF", in: "h\r\na\r\n\r\nb\r\n", header: "h", want: []string{"a", "b"}},
		{name: "blank lines ignored", in: "\n\na\n\n", want: []string{"a"}},
		{name: "rejected lines skipped and the first named", in: "h\na\n!1\nb\n!2\n", header: "h",
			want: []string{"a", "b"}, skipped: 2, first: "test: line 3: bang"},
		{name: "line at the cap is a line", in: big + "\r\na\n", want: []string{big, "a"}},
		{name: "line over the cap is one skipped line", in: "a\n" + big + "x\nb\n",
			want: []string{"a", "b"}, skipped: 1, first: "test: line 2: longer than"},
		{name: "NUL tail", in: "a\n" + strings.Repeat("\x00", 5<<20),
			want: []string{"a"}, skipped: 1, first: "line 2"},
		{name: "over-long header", in: big + "xx\na\n", header: "h", err: "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counted := mRowsSkipped.Value()
			got, st, err := linesOf(tc.in, tc.header)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("accepted %d lines, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("line %d = %.20q, want %.20q", i, got[i], tc.want[i])
				}
			}
			if st.Lines != len(tc.want) || st.Skipped != tc.skipped {
				t.Fatalf("stats = %+v, want %d lines, %d skipped", st, len(tc.want), tc.skipped)
			}
			if (st.First != nil) != (tc.skipped > 0) || (st.First != nil && !strings.Contains(st.First.Error(), tc.first)) {
				t.Fatalf("First = %v, want %q", st.First, tc.first)
			}
			if d := mRowsSkipped.Value() - counted; d != int64(tc.skipped) {
				t.Fatalf("netsim_rows_skipped_total moved by %d, want %d", d, tc.skipped)
			}
		})
	}
}

type failingReader struct{ n int }

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, fmt.Errorf("disk on fire")
	}
	f.n--
	return copy(p, "a\n"), nil
}

func TestReadLinesSurfacesIOErrors(t *testing.T) {
	st, err := ReadLines(&failingReader{n: 2}, "test:", "", func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "disk on fire") || st.Lines != 2 {
		t.Fatalf("st %+v err %v, want 2 lines and the I/O error", st, err)
	}
}

func TestOpenAppendStartsAFreshLineAfterATornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for _, step := range []struct {
		before string // file content before the open ("" = absent)
		size   int64
		after  string // content after appending "new\n"
	}{
		{"", 0, "new\n"},
		{"a\n", 2, "a\nnew\n"},
		{"a\n{\"torn", 9, "a\n{\"torn\nnew\n"},
		{"a\n\x00\x00", 5, "a\n\x00\x00\nnew\n"},
	} {
		os.Remove(path)
		if step.before != "" {
			if err := os.WriteFile(path, []byte(step.before), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f, size, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		if size != step.size {
			t.Errorf("%q: size %d, want %d", step.before, size, step.size)
		}
		if _, err := f.WriteString("new\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if got, _ := os.ReadFile(path); string(got) != step.after {
			t.Errorf("%q: file = %q, want %q", step.before, got, step.after)
		}
	}
	if _, _, err := OpenAppend(filepath.Join(t.TempDir(), "no", "such", "dir")); err == nil {
		t.Error("open in a missing directory succeeded")
	}
}

// FuzzReadLines holds ReadLines to its contract on arbitrary bytes: no
// panic, no line over the cap reaches the parser, every non-blank line is
// either parsed or skipped, and the only tolerant error is a wrong header
// (the reader here cannot fail).
func FuzzReadLines(f *testing.F) {
	for _, seed := range []string{
		"", "h\n", "h\na\n!b\n", "h\r\na\r\n", "h\na", "g\na\n", "\n\n", "a\n\x00\x00\x00",
		"h\n" + strings.Repeat("x", MaxLineBytes+1) + "\na\n",
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, wantHeader bool) {
		header := ""
		if wantHeader {
			header = "h"
		}
		st, err := ReadLines(bytes.NewReader(data), "fuzz:", header, func(b []byte) error {
			if len(b) == 0 || len(b) > MaxLineBytes {
				t.Fatalf("parser handed a %d-byte line", len(b))
			}
			if b[0] == '!' {
				return fmt.Errorf("bang")
			}
			return nil
		})
		lines := bytes.Split(data, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1] // the terminator of the last line, not a line
		}
		for i := range lines {
			lines[i] = bytes.TrimSuffix(lines[i], []byte("\r"))
		}
		if wantHeader && len(lines) > 0 {
			if badHeader := string(lines[0]) != "h"; badHeader != (err != nil) {
				t.Fatalf("header %.20q: err = %v", lines[0], err)
			}
			lines = lines[1:]
		}
		if err != nil {
			if !wantHeader {
				t.Fatalf("tolerant read failed: %v", err)
			}
			return
		}
		nonBlank, bad := 0, 0
		for _, l := range lines {
			if len(l) > 0 {
				nonBlank++
			}
			if len(l) > MaxLineBytes || (len(l) > 0 && l[0] == '!') {
				bad++
			}
		}
		if st.Lines+st.Skipped != nonBlank || st.Skipped != bad || (st.First != nil) != (bad > 0) {
			t.Fatalf("stats %+v over %d non-blank lines, %d of them bad", st, nonBlank, bad)
		}
	})
}
