package prof

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestCaptureRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	c, err := StartCapture(dir)
	if err != nil {
		t.Fatalf("StartCapture: %v", err)
	}
	// Burn a little CPU and heap so the profiles have content.
	var sink [][]byte
	for i := 0; i < 200; i++ {
		sink = append(sink, make([]byte, 64*1024))
	}
	_ = sink
	info, err := c.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if info.Dir != dir {
		t.Fatalf("info.Dir = %q, want %q", info.Dir, dir)
	}
	for _, name := range ArtifactNames() {
		digest, ok := info.Files[name]
		if !ok {
			t.Fatalf("info.Files missing %q (have %v)", name, info.Files)
		}
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		if len(b) == 0 {
			t.Fatalf("artifact %s is empty", name)
		}
		sum := sha256.Sum256(b)
		if want := "sha256:" + hex.EncodeToString(sum[:]); digest != want {
			t.Fatalf("artifact %s digest = %s, want %s", name, digest, want)
		}
	}
	// No temp files may survive the capture.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ArtifactNames()) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("capture dir has %v, want exactly %v", names, ArtifactNames())
	}
}

// TestCaptureHeapProfileParses: the heap and goroutine profiles are
// gzipped protobuf whose string table names the pipeline's own functions,
// so go tool pprof renders them symbolized without the binary that wrote
// them.
func TestCaptureHeapProfileParses(t *testing.T) {
	dir := t.TempDir()
	c, err := StartCapture(dir)
	if err != nil {
		t.Fatalf("StartCapture: %v", err)
	}
	var sink [][]byte
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 128*1024))
	}
	runtime.KeepAlive(sink)
	if _, err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for _, name := range []string{HeapProfileName, GoroutineProfileName} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s is not gzip: %v", name, err)
		}
		b, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Every field of a pprof Profile message the runtime writes first
		// (period_type, sample_type) is length-delimited: wire type 2.
		if len(b) == 0 || b[0]&7 != 2 {
			t.Fatalf("%s is not a pprof protobuf message", name)
		}
		if !bytes.Contains(b, []byte("satwatch/")) {
			t.Fatalf("%s names no satwatch/ function: not symbolized", name)
		}
	}
}

func TestCaptureStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	c, err := StartCapture(dir)
	if err != nil {
		t.Fatalf("StartCapture: %v", err)
	}
	info1, err1 := c.Stop()
	info2, err2 := c.Stop()
	if err1 != nil || err2 != nil {
		t.Fatalf("Stop errs = %v, %v", err1, err2)
	}
	if info1.Dir != info2.Dir || len(info1.Files) != len(info2.Files) {
		t.Fatalf("second Stop returned a different snapshot: %+v vs %+v", info1, info2)
	}
}

// TestNoCaptureWithoutDir: -profile not given is a nil capture whose Stop
// the CLIs can defer unconditionally.
func TestNoCaptureWithoutDir(t *testing.T) {
	c, err := StartCapture("")
	if c != nil || err != nil {
		t.Fatalf("StartCapture(\"\") = %v, %v; want nil, nil", c, err)
	}
	if info, err := c.Stop(); err != nil || info.Dir != "" {
		t.Fatalf("nil Stop = %+v, %v", info, err)
	}
}

func TestCaptureLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	c, err := StartCapture(dir)
	if err != nil {
		t.Fatalf("StartCapture: %v", err)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// The CPU profiler's writer goroutine winds down asynchronously after
	// StopCPUProfile; give it a moment before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
