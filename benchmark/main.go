// Command benchmark is the repository's benchmark: five workloads over
// the batch pipeline, the live daemon and the socket path, ten end-to-end
// metrics and a per-layer table, everything measured from outside the
// packages it drives. README.md is the manual; BENCHMARK.json at the
// repository root declares what it reports.
//
//	go run -C benchmark . --workload NAME --seed N --seconds S --trace 0|1
//	go run -C benchmark . all|trace|selfcheck [-seed N] [-seconds S] [-workload NAME]
//	go run -C benchmark . compare OLD.json NEW.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	sub := ""
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "all", "trace", "selfcheck", "compare":
			sub, args = args[0], args[1:]
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run (all five when empty, under all/trace/selfcheck)")
	seed := fs.Uint64("seed", 42, "workload seed")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds one run measures")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "write the result (or report) JSON here")
	child := fs.String("child", "", "internal: helper process mode")
	spawned := fs.Int64("spawned", 0, "internal: parent's clock at spawn, unix ns")
	// ExitOnError: Parse exits on a bad flag.
	_ = fs.Parse(args)

	var err error
	switch {
	case *child != "":
		err = childMain(*child, *workload, *seed, *traced == 1, *spawned)
	case sub == "compare":
		err = compareFiles(fs.Args())
	case sub == "selfcheck":
		err = selfcheck(*workload, *seed, *seconds)
	case sub != "":
		_, err = runAll(sub == "trace", *workload, *seed, *seconds, *out, true)
	case *workload == "":
		err = fmt.Errorf("no -workload given (or use all, trace, selfcheck, compare)")
	default:
		err = runOne(*workload, *seed, *seconds, *traced == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childMain is the other side of runChild.
func childMain(mode, workload string, seed uint64, traced bool, spawnedNS int64) error {
	switch mode {
	case "cold-rep":
		return childColdRep(seed, traced, spawnedNS)
	case "live-setup":
		return childLiveSetup(workload)
	case "mac-prebuild":
		return childMACPrebuild()
	case "mac-cells":
		return childMACCells()
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// runners maps each declared workload to the function that runs it.
var runners = map[string]func(res *Result, seed uint64, seconds float64) error{
	wlBatchCold:    runBatchCold,
	wlBatchWarm:    runBatchWarm,
	wlLiveSteady:   runLiveWorkload,
	wlLiveOverload: runLiveWorkload,
	wlPepload:      runPepload,
}

// runWorkload runs one workload in this process and returns its checked
// result; an invalid run is an error and yields no metrics.
func runWorkload(name string, seed uint64, seconds float64, traced bool) (*Result, error) {
	run, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 2 {
		return nil, fmt.Errorf("-seconds %v: a run measures at least 2 s", seconds)
	}
	res := newResult(name, traced, fingerprint(seed, int(seconds)))
	if err := run(res, seed, seconds); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if missing := res.complete(); len(missing) > 0 {
		return nil, fmt.Errorf("%s: result does not match the declared metrics: %v", name, missing)
	}
	res.Correct = true
	return res, nil
}

// runOne is the driver's entry: one workload, one JSON object on the last
// line of standard output.
func runOne(name string, seed uint64, seconds float64, traced bool, out string) error {
	res, err := runWorkload(name, seed, seconds, traced)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	fmt.Println(res.driverLine())
	return nil
}

// runAll runs the chosen workloads, each in its own fresh child process
// (clean registry, clean MAC cell cache, its own VmHWM), and assembles the
// report. With print set the report goes to standard output as JSON.
func runAll(traced bool, only string, seed uint64, seconds float64, out string, print bool) (*Report, error) {
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	kind, flag := "end_to_end", "0"
	if traced {
		kind, flag = "per_layer", "1"
	}
	rep := &Report{Kind: kind, Fingerprint: fingerprint(seed, int(seconds))}
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s (%s, seed %d, %v s)\n", w.Name, kind, seed, seconds)
		file := filepath.Join(dir, "out", "run-"+w.Name+"-"+kind+".json")
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", flag, "-out", file)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil { // Run waits for the child to end
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		var res Result
		if err := readJSON(file, &res); err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, &res)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	if out == "" {
		out = filepath.Join(dir, "out", kind+".json")
	}
	if err := writeJSON(out, rep); err != nil {
		return nil, err
	}
	if traced {
		md := out[:len(out)-len(filepath.Ext(out))] + ".md"
		if err := os.WriteFile(md, []byte(layersMarkdown(rep)), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "benchmark: per-layer table in", md)
	}
	if print {
		if err := printJSON(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
