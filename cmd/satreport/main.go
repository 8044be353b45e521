// Command satreport reads a run's logs and prints every table and figure
// of the paper's evaluation: the paper's offline pipeline (§3.1), where
// the probe writes logs at the ground station and the analysis joins them
// with operator metadata later. It simulates nothing; satgen writes the
// logs it reads (flows.tsv, dns.tsv, meta.tsv, prefixes.tsv, beams.tsv).
// The observation window (Figure 4's customer-days) is read off the logs
// too: the days up to the latest record (netsim.Output.Days). -errant also
// prints the ERRANT emulation profiles. -live-history renders a satlive
// window-history log instead; it reads neither -from nor -errant, and
// setting one with it is an error.
//
// Corrupt log lines are skipped by default — counted
// (netsim_rows_skipped_total) and reported, the salvage path for logs out
// of an interrupted run (DESIGN.md §7). -strict fails on the first one
// instead, naming it. -metrics dumps the metrics registry.
//
// Exit codes: 0 on success, 1 on error, 2 when rows were skipped.
//
// Usage:
//
//	satreport -from DIR [-strict] [-errant] [-metrics FILE]
//	satreport -live-history PATH [-strict] [-metrics FILE]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"satwatch"
	"satwatch/internal/analytics"
	"satwatch/internal/errant"
	"satwatch/internal/live"
	"satwatch/internal/netsim"
	"satwatch/internal/obs"
)

func main() { obs.Main("satreport", run) }

func run() (int, error) {
	fromDir := flag.String("from", "", "directory of a run's logs to analyze (satgen -out)")
	liveHistory := flag.String("live-history", "", "replay a satlive -history window log (file or directory) into report tables instead")
	strict := flag.Bool("strict", false, "fail on the first corrupt log line instead of skipping it")
	errantOut := flag.Bool("errant", false, "also print ERRANT-style emulation profiles")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump to this file after the run")
	flag.Parse()

	// Metrics are cleared at start so the dump reflects this run only.
	obs.Default.Reset()

	if *liveHistory != "" {
		if err := obs.RejectUnread(flag.CommandLine, "-live-history", "from", "errant"); err != nil {
			return 0, err
		}
		return runLiveHistory(*liveHistory, *strict, *metricsOut)
	}
	if *fromDir == "" {
		return 0, errors.New("nothing to read: give -from DIR or -live-history PATH")
	}

	start := time.Now()
	out, skipped, err := netsim.ReadLogs(*fromDir, *strict)
	if err != nil {
		return 0, err
	}
	res := satwatch.New().Analyze(out, analytics.NewDataset(out, out.Days()))
	fmt.Print(res.RenderAll())
	fmt.Println(res.Signatures.Render())
	fmt.Printf("— %d flows, %d DNS transactions, %d customers, %v —\n",
		len(res.Dataset.Flows), len(res.Dataset.DNS), len(res.Output.Meta), time.Since(start).Round(time.Millisecond))

	if *errantOut {
		fmt.Println()
		fmt.Print(errant.Render(errant.BuildProfiles(res.Dataset), "eth0"))
	}
	if err := dumpMetrics(*metricsOut); err != nil {
		return 0, err
	}
	return obs.SalvageExit("satreport", "log", skipped), nil
}

// runLiveHistory replays a satlive window-history log into the standard
// report tables: the offline view of what the daemon's /analytics
// served. path may be the log file itself or a -history directory.
// Unless strict, corrupt lines (a crash-truncated tail) are skipped and
// counted, exiting 2 like every other salvage path.
func runLiveHistory(path string, strict bool, metricsOut string) (int, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, live.HistoryFileName)
	}
	ws, st, err := live.ReadHistoryFile(path)
	if err != nil {
		return 0, err
	}
	if strict && st.First != nil {
		return 0, fmt.Errorf("%s: %w", path, st.First)
	}
	fmt.Print(live.RenderHistory(ws))
	if err := dumpMetrics(metricsOut); err != nil {
		return 0, err
	}
	return obs.SalvageExit("satreport", "history", st.Skipped), nil
}

// dumpMetrics writes the registry to path; "" (no -metrics) writes nothing.
func dumpMetrics(path string) error {
	if path == "" {
		return nil
	}
	if err := obs.DumpMetrics(path); err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	return nil
}
