package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Files the toolchain trusts across a crash: written whole through
// WriteFileAtomic or a line at a time through OpenAppend, and read back
// through ReadLines, the one place that decides what a damaged log is
// worth (DESIGN.md §7).

// WriteFileAtomic writes a file through a same-directory temp file and a
// rename, so a crash or kill mid-write leaves either the previous file
// or nothing — never a truncated output. The temp file is fsynced before
// the rename; write is handed a buffered-enough *os.File directly.
func WriteFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("obs: atomic write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("obs: atomic write %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("obs: atomic write %s: close: %w", path, err)
	}
	if err = os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("obs: atomic write %s: chmod: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("obs: atomic write %s: rename: %w", path, err)
	}
	return nil
}

// OpenAppend opens (creating it if needed) a line-oriented log for
// O_APPEND writes and returns its size. A file that does not end in a
// newline — the torn tail of a crash mid-append — gets one first, so the
// next record starts its own line instead of being glued onto the torn
// one and skipped with it at the next read.
func OpenAppend(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size > 0 {
		var last [1]byte
		if _, err = f.ReadAt(last[:], size-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
			size++
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// MaxLineBytes caps one log line. A longer line (a NUL-filled tail after a
// power cut, a binary file) is skipped like any other corrupt line, so a
// read never holds more than this much of its input.
const MaxLineBytes = 4 << 20

var mRowsSkipped = NewCounter("netsim_rows_skipped_total",
	"Corrupt input rows skipped (and counted) by tolerant readers across the toolchain.", "")

// ReadStats reports what ReadLines consumed: the data lines its parser
// accepted, the corrupt ones it dropped instead of aborting on, and the
// first of those as the error a strict caller fails with.
type ReadStats struct {
	Lines   int
	Skipped int
	First   error
}

// ReadLines feeds a line-oriented log to parse, one line at a time without
// its terminator (valid only during the call). A non-empty header must
// equal line 1: a wrong header means a wrong file, not a damaged one, and
// is an error, as is a failing r. Blank lines are ignored. A line parse
// rejects, or one longer than MaxLineBytes, is skipped, counted in the
// stats and in netsim_rows_skipped_total, and never an error: strict
// callers check ReadStats.First. what prefixes every message
// ("<what> line 3: ...").
func ReadLines(r io.Reader, what, header string, parse func(line []byte) error) (ReadStats, error) {
	var st ReadStats
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte // a line spanning several buffer fills
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		tooLong := false
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				// +2: the cap is on the line, not on its "\r\n".
				if tooLong = tooLong || len(long)+len(line) > MaxLineBytes+2; !tooLong {
					long = append(long, line...)
				}
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return st, fmt.Errorf("%s read: %w", what, err)
		}
		if len(line) == 0 { // EOF right after a newline, or an empty file
			break
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		tooLong = tooLong || len(line) > MaxLineBytes
		var bad error
		switch {
		case n == 1 && header != "":
			if tooLong || string(line) != header {
				return st, fmt.Errorf("%s line 1: unexpected header", what)
			}
		case tooLong:
			bad = fmt.Errorf("longer than %d bytes", MaxLineBytes)
		case len(line) > 0:
			if bad = parse(line); bad == nil {
				st.Lines++
			}
		}
		if bad != nil {
			st.Skipped++
			mRowsSkipped.Inc()
			if st.First == nil {
				st.First = fmt.Errorf("%s line %d: %w", what, n, bad)
			}
		}
		if err == io.EOF {
			break
		}
	}
	return st, nil
}
