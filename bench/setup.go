package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"kor"
	"kor/bench/internal/proc"
	"kor/bench/internal/stat"
	"kor/internal/cluster"
)

// Each cheap set-up step runs at least minSetupRepeats times, and on until it
// has run maxSetupRepeats times or taken setupRepeatBudget in all; setup_s
// uses the medians. A lazy-oracle server is up in 20 ms, which one busy
// moment of the host doubles: eleven starts cost a quarter of a second and
// their median holds still. The 8,000-node distance index takes seconds to
// build, so it is built once per run and relies on the driver's median over
// runs instead.
const (
	minSetupRepeats   = 3
	maxSetupRepeats   = 11
	setupRepeatBudget = time.Second
)

// medianSeconds runs step repeatedly, as the constants above say, and
// returns the median of the times it reports.
func medianSeconds(step func(i int) (time.Duration, error)) (float64, error) {
	var secs []float64
	began := time.Now()
	for i := 0; i < minSetupRepeats || (i < maxSetupRepeats && time.Since(began) < setupRepeatBudget); i++ {
		took, err := step(i)
		if err != nil {
			return 0, err
		}
		secs = append(secs, took.Seconds())
	}
	return stat.Median(secs), nil
}

// readyTimeout bounds the wait for a fresh server's first 200 from
// /v1/stats.
const readyTimeout = 60 * time.Second

// fixture is one run's data on disk: the dataset (untimed) and whatever the
// workload's server needs preprocessed from it (timed).
type fixture struct {
	g         *kor.Graph
	graphPath string

	indexPath   string
	indexBuildS float64

	cut        *cluster.Cut
	shardPaths []string
	mapPath    string
	cutS       float64
}

// deployment is the running system under test.
type deployment struct {
	// url receives the load: the korserve, or the korrouter.
	url string
	// servers are all processes, replicas the shard backends in shard order
	// (sharded only).
	servers  []*proc.Proc
	replicas []*proc.Proc
	// startS is the median time from launching the processes to the first
	// 200 from /v1/stats.
	startS float64
}

// newFixture generates the dataset and runs the product preprocessing the
// workload depends on.
func newFixture(w workload, dir string) (*fixture, error) {
	g, err := w.graph()
	if err != nil {
		return nil, err
	}
	fx := &fixture{g: g, graphPath: filepath.Join(dir, w.dataset+".korg")}
	if err := kor.SaveGraph(fx.graphPath, g); err != nil {
		return nil, fmt.Errorf("saving dataset: %w", err)
	}
	switch w.server {
	case indexed:
		fx.indexPath = filepath.Join(dir, w.dataset+".kori")
		start := time.Now()
		if _, err := kor.WriteDistIndex(fx.indexPath, g, 0); err != nil {
			return nil, fmt.Errorf("building distance index: %w", err)
		}
		fx.indexBuildS = time.Since(start).Seconds()
	case sharded:
		fx.cutS, err = medianSeconds(func(int) (time.Duration, error) {
			start := time.Now()
			err := fx.cutShards(dir)
			return time.Since(start), err
		})
		if err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// cutShards does what kordata -shard 2 -halo 2 does: cut, save one graph
// per shard, save the shard map.
func (fx *fixture) cutShards(dir string) error {
	cut, err := cluster.CutGraph(fx.g, cluster.CutConfig{Shards: 2, Halo: 2})
	if err != nil {
		return fmt.Errorf("cutting shards: %w", err)
	}
	fx.cut, fx.shardPaths = cut, nil
	for i, sg := range cut.Graphs {
		path := filepath.Join(dir, fmt.Sprintf("road.shard%d.korg", i))
		if err := kor.SaveGraph(path, sg); err != nil {
			return fmt.Errorf("saving shard %d: %w", i, err)
		}
		cut.Map.Shards[i].Graph = filepath.Base(path)
		fx.shardPaths = append(fx.shardPaths, path)
	}
	fx.mapPath = filepath.Join(dir, "road.shardmap.json")
	if err := cut.Map.Save(fx.mapPath); err != nil {
		return fmt.Errorf("saving shard map: %w", err)
	}
	return nil
}

// preprocessS is the preprocessing share of setup_s.
func (fx *fixture) preprocessS() float64 { return fx.indexBuildS + fx.cutS }

// deploy starts the workload's servers several times, each time from
// nothing to the first 200 from /v1/stats, and leaves the last set running.
func deploy(ctx context.Context, w workload, fx *fixture, binDir, dir string, group *proc.Group, admin *http.Client) (*deployment, error) {
	var dep *deployment
	startS, err := medianSeconds(func(i int) (time.Duration, error) {
		if dep != nil {
			for _, p := range dep.servers {
				p.Stop()
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		start := time.Now()
		var err error
		dep, err = startServers(w, fx, binDir, filepath.Join(dir, fmt.Sprintf("start%d", i)), group, admin)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	dep.startS = startS
	return dep, nil
}

// startServers launches one set of servers with default flags and returns
// once the entry point answers /v1/stats.
func startServers(w workload, fx *fixture, binDir, logPrefix string, group *proc.Group, admin *http.Client) (*deployment, error) {
	korserve := filepath.Join(binDir, "korserve")
	dep := &deployment{}
	start := func(bin string, args []string, log string) (*proc.Proc, error) {
		p, err := group.Start(bin, args, logPrefix+"-"+log+".log")
		if err != nil {
			return nil, err
		}
		dep.servers = append(dep.servers, p)
		return p, nil
	}
	if w.server != sharded {
		args := []string{"-graph", fx.graphPath}
		if w.server == indexed {
			args = append(args, "-dist-index", fx.indexPath)
		}
		p, err := start(korserve, args, "korserve")
		if err != nil {
			return nil, err
		}
		if err := p.WaitReady(admin, readyTimeout); err != nil {
			return nil, err
		}
		dep.url = p.URL
		return dep, nil
	}

	var backends []string
	for i, path := range fx.shardPaths {
		p, err := start(korserve, []string{"-graph", path, "-role", "replica", "-shard-id", fmt.Sprint(i)}, fmt.Sprintf("shard%d", i))
		if err != nil {
			return nil, err
		}
		dep.replicas = append(dep.replicas, p)
		backends = append(backends, fmt.Sprintf("%d=%s", i, p.URL))
	}
	// The router probes its backends once at boot; they must be up first.
	for _, p := range dep.replicas {
		if err := p.WaitReady(admin, readyTimeout); err != nil {
			return nil, err
		}
	}
	router, err := start(filepath.Join(binDir, "korrouter"),
		[]string{"-shardmap", fx.mapPath, "-backends", strings.Join(backends, ",")}, "korrouter")
	if err != nil {
		return nil, err
	}
	if err := router.WaitReady(admin, readyTimeout); err != nil {
		return nil, err
	}
	dep.url = router.URL
	return dep, nil
}

// rssMiB sums a memory reading over the servers; ok is false where the
// platform cannot tell.
func (d *deployment) rssMiB(read func(*proc.Proc) (float64, bool)) (total float64, ok bool) {
	for _, p := range d.servers {
		mib, ok := read(p)
		if !ok {
			return 0, false
		}
		total += mib
	}
	return total, true
}
