package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A trace file cut short by a kill: two complete flow lines with a
// half-written JSON object at the tail and mid-stream garbage.
const cutTrace = `{"customer":1,"day":0,"index":0,"total_ms":550}
not json at all
{"customer":2,"day":0,"index":3,"total_ms":700}
{"customer":3,"day":0,"ind`

func TestReadTolerantSkipsAndCounts(t *testing.T) {
	flows, st, err := read(strings.NewReader(cutTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("salvaged %d flows, want 2", len(flows))
	}
	if st.Lines != 2 || st.Skipped != 2 {
		t.Fatalf("stats = %+v, want 2 lines / 2 skipped", st)
	}
	if flows[0].Customer != 1 || flows[1].Customer != 2 {
		t.Fatalf("salvaged the wrong flows: %+v", flows)
	}
	// Strict mode fails on the first corrupt line and names it.
	if _, err := Read(strings.NewReader(cutTrace)); err == nil {
		t.Fatal("strict read accepted the cut trace")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict error %q does not name line 2", err)
	}
}

func TestReadFileTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(cutTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	flows, st, err := ReadFilesTolerant([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 || st.Skipped != 2 {
		t.Fatalf("file salvage: %d flows, %d skipped, want 2 / 2", len(flows), st.Skipped)
	}
	// Across a set, skips add up and the strict error names file and line.
	flows, st, err = ReadFilesTolerant([]string{path, path})
	if err != nil || len(flows) != 4 || st.Lines != 4 || st.Skipped != 4 {
		t.Fatalf("set salvage: %d flows, stats %+v, err %v", len(flows), st, err)
	}
	if _, err := ReadFiles([]string{path, path}); err == nil || !strings.Contains(err.Error(), path+": trace: line 2:") {
		t.Fatalf("strict set read: err %v, want %s line 2", err, path)
	}
	if _, _, err := ReadFilesTolerant([]string{filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Fatal("missing file did not error")
	}
}
