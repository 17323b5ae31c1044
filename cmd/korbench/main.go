// Command korbench regenerates the paper's evaluation: it renders every
// experiment of §4 as a text table on the synthetic stand-ins for the
// paper's datasets.
//
//	korbench -all                      # every experiment (minutes)
//	korbench -fig 4                    # one experiment
//	korbench -fig 17 -queries 8       # smaller workload
//	korbench -list                     # available experiment ids
//
// Wall time is measured by the serving benchmark under bench/, not here;
// see the Performance section of README.md.
package main

import (
	"flag"
	"fmt"
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
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-20s %s\n", r.ID, r.Title)
		}
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
		fmt.Fprintln(os.Stderr, "korbench: pass -all, -fig <id> or -list")
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "korbench:", err)
	os.Exit(1)
}
