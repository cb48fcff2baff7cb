// Command msbench regenerates the tables and figures of "Multiprotocol
// Backscatter for Personal IoT Sensors" (CoNEXT 2020) from the
// multiscatter simulator and prints them as markdown next to the
// paper's published values. The experiments are internal/report's
// registry; `msbench -h` lists their ids.
//
// Usage:
//
//	msbench [-experiment all|<id>] [-trials N] [-seed N]
//	msbench -markdown report.md            # full report + BENCH_<date>.json
//	msbench -json metrics.json             # metrics only ('-' for stdout)
//	msbench -obs :6060 -obs-hold 5s ...    # serve metrics + pprof alongside
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"multiscatter/internal/clilog"
	"multiscatter/internal/obs/benchdiff"
	"multiscatter/internal/obs/obsflag"
	"multiscatter/internal/report"
)

var (
	experiment = flag.String("experiment", "all", "experiment id: all, or one of "+strings.Join(report.IDs(), " "))
	trials     = flag.Int("trials", 30, "identification trials per protocol")
	seed       = flag.Int64("seed", 1, "random seed")
	markdown   = flag.String("markdown", "", "write a full markdown report to this file instead of printing")
	jsonOut    = flag.String("json", "", "write machine-readable metrics JSON (default BENCH_<date>.json next to -markdown; 'none' disables)")
)

func main() {
	flag.Parse()
	lg := clilog.Setup("msbench")
	lg.Debug("bench starting", "experiment", *experiment, "trials", *trials, "seed", *seed)
	defer obsflag.Start("msbench")()
	o := report.Options{Trials: *trials, Seed: *seed}
	if *markdown != "" || *jsonOut != "" {
		runReport(o)
		return
	}
	if *experiment == "all" {
		_, err := report.WriteMetrics(os.Stdout, o)
		check(err)
		return
	}
	e, ok := report.Lookup(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all %s\n", *experiment, strings.Join(report.IDs(), " "))
		os.Exit(2)
	}
	_, err := e.Render(os.Stdout, o)
	check(err)
}

// runReport renders the markdown report and/or the machine-readable
// metrics JSON (metric group → metric → value) from one experiment run.
func runReport(o report.Options) {
	var md bytes.Buffer
	metrics, err := report.WriteMetrics(&md, o)
	check(err)
	if *markdown != "" {
		check(os.WriteFile(*markdown, md.Bytes(), 0o644))
		fmt.Printf("wrote %s\n", *markdown)
	}

	path := *jsonOut
	if path == "none" {
		return
	}
	if path == "" {
		path = filepath.Join(filepath.Dir(*markdown),
			"BENCH_"+time.Now().Format("2006-01-02")+".json")
	}
	doc := benchdiff.Doc{Generated: time.Now().Format(time.RFC3339), Trials: *trials, Seed: *seed, Metrics: metrics}
	blob, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	blob = append(blob, '\n')
	if path == "-" {
		os.Stdout.Write(blob)
		return
	}
	check(os.WriteFile(path, blob, 0o644))
	fmt.Printf("wrote %s\n", path)
}

// check exits with status 1 on a non-nil error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}
