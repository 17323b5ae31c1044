// Command korbench regenerates the paper's evaluation and records the
// repository's performance trajectory.
//
// Figure mode renders every experiment of §4 as a text table on the
// synthetic stand-ins for the paper's datasets:
//
//	korbench -all                      # every experiment (minutes)
//	korbench -fig 4                    # one experiment
//	korbench -fig 17 -queries 8       # smaller workload
//	korbench -list                     # available experiment ids
//
// Bench mode measures the fixed serving workloads and emits the
// machine-readable report committed as BENCH_<rev>.json (per-algorithm
// ns/op, labels expanded, oracle sweeps, allocations):
//
//	korbench -bench -bench-out BENCH_dev.json
//	korbench -bench -smoke -bench-out BENCH_ci.json -baseline BENCH_ci_baseline.json
//	korbench -table BENCH_dev.json    # render a report as Markdown
//
// With -baseline the run exits non-zero when any shared (workload,
// algorithm) cell regressed past 2x ns/op, or when a cell's query
// failure count grew — failures are deterministic, so any increase is a
// behavior change, not noise, and the report records the first failure's
// reason alongside the count. This is the CI guard.
//
// See the Performance section of README.md for measured results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kor/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "", "experiment id to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		queries = flag.Int("queries", 16, "queries per set (paper: 50)")
		seed    = flag.Int64("seed", 2012, "workload seed")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")

		bench    = flag.Bool("bench", false, "run the serving benchmark suite and emit a JSON report")
		smoke    = flag.Bool("smoke", false, "bench: CI-sized datasets (comparable only to other smoke reports)")
		iters    = flag.Int("iters", 0, "bench: measured passes per query set (default 3)")
		benchOut = flag.String("bench-out", "-", "bench: report destination (- = stdout)")
		baseline = flag.String("baseline", "", "bench: baseline report; exit non-zero on >2x ns/op regression")
		table    = flag.String("table", "", "render an existing bench report as a Markdown table and exit")
	)
	flag.Parse()

	switch {
	case *list:
		for _, r := range experiments.Runners() {
			fmt.Printf("%-20s %s\n", r.ID, r.Title)
		}
		return
	case *table != "":
		report, err := experiments.ReadBenchReport(*table)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.BenchMarkdown(report))
		return
	case *bench:
		runBench(experiments.BenchOptions{Seed: *seed, Iters: *iters, Smoke: *smoke}, *benchOut, *baseline, *quiet)
		return
	}

	cfg := experiments.Config{Seed: *seed, Queries: *queries}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	switch {
	case *all:
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fatal(err)
		}
	case *fig != "":
		if err := experiments.Run(*fig, cfg, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "korbench: pass -all, -fig <id>, -list, -bench or -table <report>")
		flag.Usage()
		os.Exit(2)
	}
}

// benchRegressionRatio is the CI gate: fail when a cell's ns/op exceeds this
// multiple of the committed baseline.
const benchRegressionRatio = 2.0

func runBench(opts experiments.BenchOptions, out, baselinePath string, quiet bool) {
	// An io.Writer must be assigned a concrete value only when non-nil: a
	// typed-nil *os.File would defeat RunBench's nil check.
	var log io.Writer
	if !quiet {
		log = os.Stderr
	}
	report, err := experiments.RunBench(opts, log)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteBenchReport(report, out); err != nil {
		fatal(err)
	}
	if baselinePath == "" {
		return
	}
	base, err := experiments.ReadBenchReport(baselinePath)
	if err != nil {
		fatal(err)
	}
	if base.Smoke != report.Smoke {
		fatal(fmt.Errorf("baseline %s and this run measure different dataset sizes (smoke=%v vs %v); compare like with like",
			baselinePath, base.Smoke, report.Smoke))
	}
	regressions := experiments.CompareBench(base, report, benchRegressionRatio)
	if len(regressions) == 0 {
		fmt.Fprintf(os.Stderr, "korbench: no >%.1fx regressions vs %s\n", benchRegressionRatio, baselinePath)
		return
	}
	fmt.Fprintf(os.Stderr, "korbench: %d regression(s) vs %s:\n", len(regressions), baselinePath)
	for _, r := range regressions {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "korbench:", err)
	os.Exit(1)
}
