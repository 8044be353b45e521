package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestSignalContextCancelsOnSIGTERM(t *testing.T) {
	ctx, stop := SignalContext()
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled by SIGTERM")
	}
}

func TestServeDebug(t *testing.T) {
	stop, err := ServeDebug("", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop() // nothing started: must not linger

	// ServeDebug only prints where it bound, so pick the port up front.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	stop, err = ServeDebug(addr, 0, func() any { return map[string]int{"n": 1} })
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/progress: %s", resp.Status)
	}
	stop()
	if _, err := http.Get("http://" + addr + "/progress"); err == nil {
		t.Fatal("server still answering after stop")
	}
}

func TestDumpMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := DumpMetrics(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump is not a JSON object: %v", err)
	}
}
