// Command korquery answers one KOR query against a saved dataset.
//
// Usage:
//
//	korquery -graph city.korg -from 12 -to 80 -keywords cafe,jazz -delta 6 \
//	         [-algo bucketbound|osscaling|greedy|topk|exact|bruteforce] \
//	         [-k 3] [-epsilon 0.5]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"kor"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file written by kordata (required)")
		from      = flag.Int("from", 0, "source node id")
		to        = flag.Int("to", 0, "target node id")
		keywords  = flag.String("keywords", "", "comma-separated query keywords (required)")
		delta     = flag.Float64("delta", 0, "budget limit Δ (required, > 0)")
		algo      = flag.String("algo", "", "algorithm: bucketbound (default) | osscaling | greedy | topk | exact | bruteforce")
		k         = flag.Int("k", 1, "top-k routes (label algorithms)")
		epsilon   = flag.Float64("epsilon", 0.5, "scaling parameter ε")
		beta      = flag.Float64("beta", 1.2, "bucket base β")
		alpha     = flag.Float64("alpha", 0.5, "greedy balance α")
		width     = flag.Int("width", 1, "greedy beam width: 1 (Greedy-1) to 4")
		metrics   = flag.Bool("metrics", false, "print search work counters")
		timeout   = flag.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
	)
	flag.Parse()
	if *graphPath == "" || *keywords == "" || *delta <= 0 {
		fmt.Fprintln(os.Stderr, "korquery: -graph, -keywords and -delta are required")
		flag.Usage()
		os.Exit(2)
	}
	// kor.NodeID is 32 bits wide: a larger id would wrap onto another node.
	if *from < 0 || *from > math.MaxInt32 || *to < 0 || *to > math.MaxInt32 {
		fmt.Fprintf(os.Stderr, "korquery: -from and -to must be node ids in [0, %d]\n", math.MaxInt32)
		flag.Usage()
		os.Exit(2)
	}
	algorithm, err := kor.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}

	g, err := kor.LoadGraph(*graphPath)
	if err != nil {
		fatal(err)
	}
	eng, err := kor.NewEngine(g, nil)
	if err != nil {
		fatal(err)
	}

	opts := kor.DefaultOptions()
	opts.Epsilon = *epsilon
	opts.Beta = *beta
	opts.Alpha = *alpha
	opts.Width = *width

	// Ctrl-C (or -timeout) aborts the search cleanly through its context —
	// the exact search especially can run effectively forever on the wrong
	// query.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	resp, err := eng.Run(ctx, kor.Request{
		From:      kor.NodeID(*from),
		To:        kor.NodeID(*to),
		Keywords:  splitKeywords(*keywords),
		Budget:    *delta,
		Algorithm: algorithm,
		K:         *k,
		Options:   &opts,
	})
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "korquery: search timed out")
		os.Exit(1)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "korquery: search interrupted")
		os.Exit(1)
	case errors.Is(err, kor.ErrNoRoute):
		fmt.Println("no feasible route exists")
		os.Exit(1)
	case errors.Is(err, kor.ErrBudgetExceeded):
		fmt.Println("greedy covered the keywords but exceeded Δ:")
	case err != nil:
		fatal(err)
	}

	for i, r := range resp.Routes {
		if len(resp.Routes) > 1 {
			fmt.Printf("%d. ", i+1)
		}
		fmt.Println(eng.Describe(r))
	}
	if *metrics {
		if resp.Bound > 0 {
			fmt.Printf("algorithm: %s (objective within %.3gx of optimal), %v\n",
				resp.Algorithm, resp.Bound, resp.Elapsed)
		} else {
			fmt.Printf("algorithm: %s (no approximation guarantee), %v\n",
				resp.Algorithm, resp.Elapsed)
		}
		fmt.Printf("metrics: %+v\n", resp.Metrics)
	}
}

func splitKeywords(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "korquery:", err)
	os.Exit(1)
}
