package prof

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"

	"satwatch/internal/obs"
)

// The artifact file names a capture writes into its directory. Every one
// is a gzipped, symbolized protobuf profile: go tool pprof reads it
// without the binary that wrote it.
const (
	// CPUProfileName is the CPU profile, labeled by stage and worker.
	CPUProfileName = "cpu.pprof"
	// HeapProfileName is the heap profile after a forced GC.
	HeapProfileName = "heap.pprof"
	// GoroutineProfileName is the goroutine profile.
	GoroutineProfileName = "goroutine.pprof"
	// BlockProfileName is the blocking profile.
	BlockProfileName = "block.pprof"
)

// ArtifactNames lists every file a capture writes, in the order they are
// produced (the doc cross-check test walks this).
func ArtifactNames() []string {
	return []string{CPUProfileName, HeapProfileName, GoroutineProfileName, BlockProfileName}
}

// blockProfileRate samples one blocking event per this many nanoseconds
// blocked — cheap enough for always-on capture, fine enough to surface
// the merge heap and channel waits.
const blockProfileRate = 1000

// Capture is an in-flight profile capture: the CPU profile streams to a
// temp file from StartCapture on; Stop writes every artifact atomically
// and returns the manifest `profiles` block. Only one capture can run
// per process (a CPU profile is process-global).
type Capture struct {
	dir    string
	cpuTmp *os.File
	once   sync.Once
	info   obs.ProfilesInfo
	err    error
}

// StartCapture creates dir (if needed), starts the CPU profile and
// enables block profiling. Call Stop to write the artifacts. Fails if a
// CPU profile is already running in this process. An empty dir (-profile
// not given) captures nothing and returns a nil Capture.
func StartCapture(dir string) (*Capture, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: capture dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+CPUProfileName+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("prof: capture: %w", err)
	}
	if err := pprof.StartCPUProfile(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("prof: capture: %w", err)
	}
	runtime.SetBlockProfileRate(blockProfileRate)
	return &Capture{dir: dir, cpuTmp: tmp}, nil
}

// Stop ends the capture and writes cpu, heap, goroutine and block
// profiles into the capture directory, each atomically (temp + rename),
// returning the manifest `profiles` block with their sha256 digests.
// Safe to call more than once; later calls return the first outcome.
// A nil Capture has nothing to stop.
func (c *Capture) Stop() (obs.ProfilesInfo, error) {
	if c == nil {
		return obs.ProfilesInfo{}, nil
	}
	c.once.Do(func() { c.info, c.err = c.stop() })
	return c.info, c.err
}

func (c *Capture) stop() (obs.ProfilesInfo, error) {
	info := obs.ProfilesInfo{Dir: c.dir, Files: map[string]string{}}

	// CPU: the profile streamed into the temp file; flush and move it
	// into place like every other pipeline output.
	pprof.StopCPUProfile()
	runtime.SetBlockProfileRate(0)
	cpuPath := filepath.Join(c.dir, CPUProfileName)
	if err := c.cpuTmp.Sync(); err != nil {
		return info, fmt.Errorf("prof: cpu profile: %w", err)
	}
	if err := c.cpuTmp.Close(); err != nil {
		return info, fmt.Errorf("prof: cpu profile: %w", err)
	}
	if err := os.Chmod(c.cpuTmp.Name(), 0o644); err != nil {
		return info, fmt.Errorf("prof: cpu profile: %w", err)
	}
	if err := os.Rename(c.cpuTmp.Name(), cpuPath); err != nil {
		return info, fmt.Errorf("prof: cpu profile: %w", err)
	}
	digest, err := digestFile(cpuPath)
	if err != nil {
		return info, err
	}
	info.Files[CPUProfileName] = digest

	// The heap profile reports the state as of the last GC; run one so it
	// reflects the end-of-run heap, not an arbitrary earlier cycle.
	runtime.GC()
	for _, p := range []struct{ name, profile string }{
		{HeapProfileName, "heap"},
		{GoroutineProfileName, "goroutine"},
		{BlockProfileName, "block"},
	} {
		path := filepath.Join(c.dir, p.name)
		h := sha256.New()
		if err := obs.WriteFileAtomic(path, func(w io.Writer) error {
			return pprof.Lookup(p.profile).WriteTo(io.MultiWriter(w, h), 0)
		}); err != nil {
			return info, fmt.Errorf("prof: %s profile: %w", p.profile, err)
		}
		info.Files[p.name] = "sha256:" + hex.EncodeToString(h.Sum(nil))
	}
	return info, nil
}

func digestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("prof: digest: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("prof: digest %s: %w", path, err)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}
