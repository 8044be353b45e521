// Command sattrace renders flow traces recorded by satgen -trace or
// satlive -trace: per-flow latency waterfalls ("explain this flow's 550 ms") and
// top-K rankings of the slowest flows, overall or by component.
//
// Corrupt JSONL lines — the tail of a trace cut short by a kill — are
// skipped and counted by default; -strict fails on the first one
// instead. -metrics dumps the metrics registry (including the
// skipped-line counter) after rendering. Exit codes: 0 on success, 1 on
// error, 2 when lines were skipped (the rendering ran on salvaged,
// incomplete data).
//
// Multiple inputs — positional paths after the flags, or -glob — are
// merged by flow start time, so a satlive -trace directory's rotated
// logs read as one stream.
//
// Usage:
//
//	sattrace -in trace.jsonl                    # top 10 slowest, with waterfalls
//	sattrace -in trace.jsonl -top 25 -summary   # ranking table only
//	sattrace -in trace.jsonl -by pep.setup      # slowest by PEP setup sojourn
//	sattrace -in trace.jsonl -flow c12-d0-f3    # one flow's waterfall
//	sattrace -in trace.jsonl -spans             # list recordable span names
//	sattrace -in trace.jsonl -metrics FILE      # also dump the metrics registry
//	sattrace a.jsonl b.jsonl                    # merge several trace files
//	sattrace -glob 'tracedir/trace*.jsonl'      # merge a rotated live log set
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"satwatch/internal/obs"
	"satwatch/internal/trace"
)

func main() { obs.Main("sattrace", run) }

func run() (int, error) {
	in := flag.String("in", "", "trace JSONL file written by satgen -trace")
	glob := flag.String("glob", "", "glob of trace JSONL files to merge (rotated satlive -trace logs)")
	top := flag.Int("top", 10, "show the K slowest flows")
	by := flag.String("by", "", "rank by this component's span time (e.g. pep.setup) instead of total RTT")
	flowID := flag.String("flow", "", "render a single flow's waterfall by id (c<customer>-d<day>-f<index>)")
	summary := flag.Bool("summary", false, "print only the ranking table, no waterfalls")
	spans := flag.Bool("spans", false, "list every span name the pipeline records and exit")
	strict := flag.Bool("strict", false, "fail on the first corrupt trace line instead of skipping it")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump here after rendering")
	flag.Parse()

	// Metrics are cleared at run start so every dump reflects this run
	// only, not process-lifetime totals.
	obs.Default.Reset()

	// First SIGINT/SIGTERM is absorbed so the metrics dump and any
	// in-flight atomic write complete (rendering is skipped); a second
	// one restores the default handler and kills the process.
	ctx, stop := obs.SignalContext()
	defer stop()

	if *spans {
		fmt.Println(strings.Join(trace.SpanNames(), "\n"))
		return finish(0, *metricsOut)
	}
	// Inputs: -in, positional paths, and -glob expansions, merged.
	paths := flag.Args()
	if *in != "" {
		paths = append([]string{*in}, paths...)
	}
	if *glob != "" {
		matches, err := filepath.Glob(*glob)
		if err != nil {
			return 0, fmt.Errorf("bad -glob %q: %w", *glob, err)
		}
		if len(matches) == 0 {
			return 0, fmt.Errorf("-glob %q matched no files", *glob)
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		flag.Usage()
		return 0, fmt.Errorf("no inputs: pass -in, positional trace files, or -glob")
	}
	if *by != "" {
		known := false
		for _, n := range trace.SpanNames() {
			if n == *by {
				known = true
				break
			}
		}
		if !known {
			return 0, fmt.Errorf("unknown component %q (see -spans)", *by)
		}
	}

	flows, st, err := trace.ReadFilesTolerant(paths)
	if err == nil && *strict {
		err = st.First
	}
	if err != nil {
		return 0, err
	}
	if len(paths) > 1 {
		// Rotated logs arrive newest-first; present one chronological
		// stream regardless of file order.
		trace.SortByStart(flows)
	}
	// Every rendering ends the same way: the skip line and exit 2 if the
	// trace was salvaged, then the metrics dump.
	done := func() (int, error) {
		return finish(obs.SalvageExit("sattrace", "trace", st.Skipped), *metricsOut)
	}
	if len(flows) == 0 {
		fmt.Println("no traced flows (sampling selected none — lower -trace-sample)")
		return done()
	}

	if *flowID != "" {
		f, ok := trace.ByID(flows, *flowID)
		if !ok {
			return 0, fmt.Errorf("flow %s not in %s (%d flows)", *flowID, strings.Join(paths, ","), len(flows))
		}
		fmt.Print(trace.Waterfall(f))
		return done()
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "sattrace: interrupted, skipping rendering")
		return finish(2, *metricsOut)
	}

	ranked := trace.TopK(flows, *by, *top)
	what := "total satellite RTT"
	if *by != "" {
		what = *by
	}
	src := paths[0]
	if len(paths) > 1 {
		src = fmt.Sprintf("%d files", len(paths))
	}
	fmt.Printf("%d traced flows in %s · top %d by %s\n\n", len(flows), src, len(ranked), what)
	fmt.Print(trace.Summary(ranked, *by))
	if !*summary {
		for _, f := range ranked {
			fmt.Println()
			fmt.Print(trace.Waterfall(f))
		}
	}
	return done()
}

// finish dumps the metrics registry when requested, then passes the exit
// code through. Every successful return path funnels here so the dump
// happens regardless of rendering mode.
func finish(code int, metricsPath string) (int, error) {
	if metricsPath == "" {
		return code, nil
	}
	if err := obs.DumpMetrics(metricsPath); err != nil {
		return 0, fmt.Errorf("metrics dump: %w", err)
	}
	fmt.Printf("metrics written to %s\n", metricsPath)
	return code, nil
}
