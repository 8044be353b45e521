// Command satbench runs the performance-observatory scenario matrix
// (population size × fault schedule × parallelism) through the in-process
// pipeline and writes a schema-versioned BENCH_<UTC-stamp>.json snapshot:
// per-stage wall times from the manifest plumbing, flows/s, memory deltas
// and sampled peak heap, an environment fingerprint, output digests and a
// full metrics-registry snapshot per scenario. A human-readable table
// goes to stdout. Compare two snapshots with cmd/satdiff.
//
// satbench also enforces the determinism contract inside the snapshot:
// scenarios that differ only in parallelism must digest identically, and
// the run fails if they do not.
//
// Exit codes: 0 on success, 1 on error (including a determinism
// violation).
//
// Usage:
//
//	satbench [-matrix full|reduced] [-scenarios GLOB] [-seed 42]
//	         [-out FILE] [-list] [-profile DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"satwatch/internal/bench"
	"satwatch/internal/obs"
	"satwatch/internal/prof"
)

func main() { obs.Main("satbench", run) }

func run() (int, error) {
	matrixName := flag.String("matrix", "full", "scenario matrix: full (24 scenarios) or reduced (the 16-scenario CI set)")
	filter := flag.String("scenarios", "", "run only scenarios whose name matches this glob (e.g. 'small-*')")
	seed := flag.Uint64("seed", 42, "deterministic seed shared by every scenario")
	out := flag.String("out", "", "output file (default BENCH_<UTC-stamp>.json in the working directory)")
	list := flag.Bool("list", false, "print the selected scenarios and exit")
	profileDir := flag.String("profile", "", "capture cpu/heap/goroutine/block profiles (spanning every scenario) into this directory")
	flag.Parse()

	var scenarios []bench.Scenario
	switch *matrixName {
	case "full":
		scenarios = bench.Matrix(*seed)
	case "reduced":
		scenarios = bench.ReducedMatrix(*seed)
	default:
		return 0, fmt.Errorf("unknown matrix %q (want full or reduced)", *matrixName)
	}
	scenarios, err := bench.Filter(scenarios, *filter)
	if err != nil {
		return 0, err
	}
	if len(scenarios) == 0 {
		return 0, fmt.Errorf("no scenarios match -scenarios %q in the %s matrix", *filter, *matrixName)
	}

	if *list {
		for _, sc := range scenarios {
			faults := sc.Faults
			if faults == "" {
				faults = "clear"
			}
			fmt.Printf("%-20s customers=%d days=%d seed=%d parallelism=%d faults=%s\n",
				sc.Name, sc.Customers, sc.Days, sc.Seed, sc.Parallelism, faults)
		}
		return 0, nil
	}

	capture, err := prof.StartCapture(*profileDir)
	if err != nil {
		return 0, err
	}
	defer capture.Stop()

	fmt.Fprintf(os.Stderr, "running %d scenarios (%s matrix, seed %d)\n", len(scenarios), *matrixName, *seed)
	report, err := bench.RunMatrix(scenarios, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		return 0, err
	}
	if capture != nil {
		info, err := capture.Stop()
		if err != nil {
			return 0, err
		}
		report.Profiles = &info
		fmt.Fprintf(os.Stderr, "wrote profiles to %s\n", info.Dir)
	}

	groups, err := report.VerifyDigests()
	if err != nil {
		return 0, err
	}

	path := *out
	if path == "" {
		path = bench.DefaultFileName(time.Now())
	}
	if err := report.WriteFile(path); err != nil {
		return 0, err
	}

	fmt.Print(report.Table())
	fmt.Printf("determinism: %d equal-seed scenario groups byte-identical across parallelism\n", groups)
	fmt.Printf("wrote %s (%d scenarios, schema %d)\n", path, len(report.Scenarios), report.Schema)
	return 0, nil
}
