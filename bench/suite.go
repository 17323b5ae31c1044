package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"kor/bench/internal/stat"
)

// runSuite runs every workload untraced and traced, rounds times on
// consecutive seeds, and prints every metric by name with its unit. With
// more than one round it also prints each metric's spread across rounds —
// the interquartile range as a share of the median, the driver's measure —
// and reports failure when an end-to-end spread exceeds the metric's bound.
func runSuite(ctx context.Context, e env, seed int64, window time.Duration, rounds int) (bool, error) {
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	ok := true
	for round := range rounds {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				start := time.Now()
				res, err := runWorkload(ctx, e, w, seed+int64(round), window, traced)
				if err != nil {
					return false, fmt.Errorf("%s: %w", w.name, err)
				}
				fmt.Fprintf(os.Stderr, "round %d %s traced=%v: %d attempted, %d failed, %.1fs\n",
					round+1, w.name, traced, res.attempted, res.failed, time.Since(start).Seconds())
				if res.failed > 0 {
					ok = false
					fmt.Fprintf(os.Stderr, "  first failure: %s\n", res.firstFailure)
				}
				got := res.endToEnd
				if traced {
					got = res.perLayer
				}
				for name, v := range got {
					values[key{w.name, name}] = append(values[key{w.name, name}], v)
				}
				if !traced {
					values[key{w.name, "samples"}] = append(values[key{w.name, "samples"}], float64(res.attempted))
				}
			}
		}
	}

	fmt.Printf("%-22s %-32s %14s %-7s", "workload", "metric", "median", "unit")
	if rounds > 1 {
		fmt.Printf(" %14s %14s %8s %6s", "min", "max", "spread", "bound")
	}
	fmt.Println()
	for _, w := range workloads {
		defs := append([]metricDef{{name: "samples", unit: "count"}}, endToEnd...)
		for _, d := range append(defs, perLayer...) {
			xs := values[key{w.name, d.name}]
			if len(xs) == 0 {
				continue
			}
			fmt.Printf("%-22s %-32s %14.6g %-7s", w.name, d.name, stat.Median(xs), d.unit)
			if rounds > 1 {
				lo, hi := xs[0], xs[0]
				for _, x := range xs {
					lo, hi = min(lo, x), max(hi, x)
				}
				spread := stat.Spread(xs)
				fmt.Printf(" %14.6g %14.6g %8.4f", lo, hi, spread)
				if d.bound > 0 {
					fmt.Printf(" %6.2f", d.bound)
					if d.name != "setup_s" && spread > d.bound {
						ok = false
						fmt.Print("  UNSTEADY")
					}
				}
			}
			fmt.Println()
		}
	}
	return ok, nil
}
