package bench

import "testing"

func TestEnvironment(t *testing.T) {
	e := Environment()
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" {
		t.Errorf("empty toolchain fields in %+v", e)
	}
	if e.NumCPU < 1 || e.GOMAXPROCS < 1 {
		t.Errorf("NumCPU %d, GOMAXPROCS %d: want both ≥ 1", e.NumCPU, e.GOMAXPROCS)
	}
}
