// Command bench is the repository's serving benchmark: it starts fresh
// korserve / korrouter processes on generated data, drives POST /v1/route
// over loopback HTTP with seven traffic shapes, verifies every answer
// against its own copy of the graph, and reports end-to-end metrics
// (untraced) or per-layer metrics (traced). See README.md.
//
// Usage (through run.sh, which builds the binaries first):
//
//	bash bench/run.sh --workload city-uniform --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1              # every workload, both modes
//	bash bench/run.sh -seed 1 -repeat 3    # steadiness self-check
//
// With --workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; progress and diagnostics
// go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Seeds: defaultSeed is what the flags default to and what the README's
// figures were taken with; heldOutSeed is never used while changing the
// benchmark or the code under it, and is the seed a claimed gain must also
// hold on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the result object (default: run the whole suite)")
		seed    = flag.Int64("seed", defaultSeed, "query stream seed; the only source of randomness, and it reaches the generators only")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat  = flag.Int("repeat", 1, "suite mode: run the suite this many times on consecutive seeds and check every end-to-end spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *repeat)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// findEnv locates the repository root (the nearest ancestor of the working
// directory holding cmd/korserve) and the build directory run.sh fills.
func findEnv() (env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return env{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "korserve", "main.go")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return env{}, fmt.Errorf("not inside the kor repository: no cmd/korserve above the working directory")
		}
		dir = parent
	}
	build := filepath.Join(dir, ".bench_build")
	e := env{binDir: filepath.Join(build, "bin"), tmpDir: filepath.Join(build, "tmp"), outDir: filepath.Join(build, "out")}
	for _, bin := range []string{"korserve", "korrouter"} {
		if _, err := os.Stat(filepath.Join(e.binDir, bin)); err != nil {
			return env{}, fmt.Errorf("%s is not built; start the benchmark through bench/run.sh: %w", bin, err)
		}
	}
	if err := os.MkdirAll(e.tmpDir, 0o755); err != nil {
		return env{}, err
	}
	return e, nil
}

// run dispatches to the single-workload or the suite mode; ok is false when
// the run completed but an operation failed or a spread broke its bound.
func run(ctx context.Context, name string, seed int64, window time.Duration, traced bool, repeat int) (ok bool, err error) {
	e, err := findEnv()
	if err != nil {
		return false, err
	}
	if name == "" {
		return runSuite(ctx, e, seed, window, repeat)
	}
	w, found := findWorkload(name)
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(ctx, e, w, seed, window, traced)
	if err != nil {
		return false, err
	}
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed; first: %s\n", w.name, res.failed, res.attempted, res.firstFailure)
	}
	return true, printResult(res)
}

// metricValue is one entry of the result object's metrics.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result object the driver reads as the last line of
// standard output: every end-to-end metric for an untraced run, every
// per-layer metric for a traced one.
func printResult(res *result) error {
	defs, values := endToEnd, res.endToEnd
	if res.perLayer != nil {
		defs, values = perLayer, res.perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			metrics[d.name] = metricValue{v, d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
