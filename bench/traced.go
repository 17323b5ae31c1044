package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"kor"
	"kor/bench/internal/layers"
	"kor/bench/internal/load"
	"kor/bench/internal/stat"
	"kor/bench/internal/stream"
	"kor/bench/internal/trace"
	"kor/internal/cluster"
	"kor/korapi"
)

// maxGeneratorLagMS is how late the open loop's generator may run at its
// 95th percentile before the run's latencies stop meaning what they say.
const maxGeneratorLagMS = 5

// lostRouteChecks is how many of the router's no_route answers the traced
// run re-derives on the unsharded graph.
const lostRouteChecks = 60

func isNoRoute(err error) bool { return errors.Is(err, kor.ErrNoRoute) }

// isNoRouteReply reports a server's honest "no route" reply.
func isNoRouteReply(status int, body []byte) bool {
	return status == http.StatusNotFound && errorCode(body) == korapi.CodeNoRoute
}

// tracedRun produces the per-layer metrics of one workload after its window:
// what the window itself shows about the serving layers, an HTTP replay of
// the trace sample against the still-running servers, and — once they are
// stopped and the cores are free — the in-process replays of package layers.
func tracedRun(ctx context.Context, e env, dir string, w workload, fx *fixture, dep *deployment, ev *evaluator, seed int64,
	rec *trace.Recorder, drv *driven, answers []answer) (map[string]float64, error) {

	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	if err := windowProbes(w, drv, answers, rec, out); err != nil {
		return nil, err
	}
	out["apsp.index_build_s"] = fx.indexBuildS
	out["cluster.cut_s"] = fx.cutS

	// The trace sample: fresh queries of the workload's distribution that
	// the servers have not seen, so the replay runs the miss path.
	spec := w.streamSpec(fx.g)
	spec.HotSet, spec.HotShare = 0, 0
	sampleStream, err := stream.New(fx.g, spec, seed, "trace")
	if err != nil {
		return nil, err
	}
	sample := make([]stream.Query, w.traceSample)
	for i := range sample {
		if sample[i], err = sampleStream.At(i); err != nil {
			return nil, err
		}
	}
	client, err := load.NewConn(dep.url)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	spanName := "korserve.request"
	if w.server == sharded {
		spanName = "korrouter.request"
	}
	for i, q := range sample {
		id := rec.Start(spanName, fmt.Sprintf("%s/%d", w.name, i), -1)
		status, body, err := client.Post(q.Body)
		rec.End(id)
		if err != nil {
			return nil, fmt.Errorf("replaying trace sample %d: %w", i, err)
		}
		if status != http.StatusOK && !isNoRouteReply(status, body) {
			return nil, fmt.Errorf("replaying trace sample %d: status %d: %s", i, status, body)
		}
	}
	if w.server == sharded {
		if err := shardedProbes(ctx, w, fx, dep, ev, client, sample, drv.measured, rec, out); err != nil {
			return nil, err
		}
	}

	// In-process replays run with the servers gone, so they have the
	// machine to themselves as the untraced window did.
	for _, p := range dep.servers {
		p.Stop()
	}
	inProcess, err := layers.Run(ctx, layers.Config{
		Workload:  w.name,
		Graph:     fx.g,
		GraphPath: fx.graphPath,
		IndexPath: fx.indexPath,
		Oracle:    w.oracle,
		CacheSize: 1024, // korserve's default -cache
		Budget:    w.budget,
		Sample:    sample,
		Churn:     w.churn,
		Dir:       dir,
	}, rec)
	if err != nil {
		return nil, err
	}
	for name, v := range inProcess {
		out[name] = v
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.Write(filepath.Join(e.outDir, "trace-"+w.name+".json"), w.name, seed); err != nil {
		return nil, err
	}
	return out, nil
}

// windowProbes reads the serving layers' metrics off the window (and the
// open-loop phase after it) as the client saw them, and records one span per
// request and patch.
func windowProbes(w workload, drv *driven, answers []answer, rec *trace.Recorder, out map[string]float64) error {
	shift := drv.origin.Sub(rec.Origin())
	var overheadUS, latencyMS []float64
	var respBytes float64
	for _, a := range answers {
		rec.Add("client.request", fmt.Sprintf("%s/%d", w.name, a.sample.Index), -1, shift+a.sample.Due, shift+a.sample.End)
		lat := a.sample.Latency()
		latencyMS = append(latencyMS, ms(lat))
		overheadUS = append(overheadUS, float64(lat)/float64(time.Microsecond)-a.resp.ElapsedMS*1e3)
		respBytes += float64(len(a.sample.Body))
	}
	out["korserve.overhead_us_p50"] = stat.Median(overheadUS)
	out["korserve.latency_p99_ms"], _ = stat.Percentile(latencyMS, 99)
	if len(answers) > 0 {
		out["korapi.response_bytes"] = respBytes / float64(len(answers))
	}
	out["korserve.peak_rss_mib"] = drv.peakRSSMiB
	shed := 0
	for _, s := range drv.measured {
		if s.Status == http.StatusTooManyRequests {
			shed++
		}
	}
	if len(drv.measured) > 0 {
		out["korserve.shed_share"] = float64(shed) / float64(len(drv.measured))
	}
	if before, after := drv.before.Cache, drv.after.Cache; before != nil && after != nil {
		hits := float64(after.Hits - before.Hits)
		coalesced := float64(after.Coalesced - before.Coalesced)
		if lookups := hits + coalesced + float64(after.Misses-before.Misses); lookups > 0 {
			out["kor.cache_hit_share"] = hits / lookups
			out["kor.coalesced_share"] = coalesced / lookups
		}
		out["kor.cache_evictions"] = float64(after.Evictions - before.Evictions)
	}
	if drv.polls > 0 {
		out["korserve.degraded_window_share"] = float64(drv.degradedPolls) / float64(drv.polls)
	}
	var patchMS []float64
	for _, p := range drv.patches {
		rec.Add("korserve.patch", w.name+"/patch", -1, shift+p.At, shift+p.At+p.Took)
		patchMS = append(patchMS, ms(p.Took))
	}
	out["korserve.patch_ms_p50"] = stat.Median(patchMS)

	if len(drv.open) == 0 {
		return nil
	}
	var openMS, lagMS []float64
	for k, s := range drv.open {
		rec.Add("client.open_request", fmt.Sprintf("%s/%d", w.name, s.Index), -1, shift+s.Due, shift+s.End)
		if s.Err != nil || (s.Status != http.StatusOK && !isNoRouteReply(s.Status, s.Body)) {
			return fmt.Errorf("open-loop request %d: status %d: %v", s.Index, s.Status, s.Err)
		}
		openMS = append(openMS, ms(s.Latency()))
		lagMS = append(lagMS, ms(drv.lag[k]))
	}
	out["korserve.open_latency_p50_ms"], _ = stat.Percentile(openMS, 50)
	out["korserve.open_latency_p95_ms"], _ = stat.Percentile(openMS, 95)
	lagP95, _ := stat.Percentile(lagMS, 95)
	out["korserve.generator_lag_ms_p95"] = lagP95
	if lagP95 > maxGeneratorLagMS {
		fmt.Fprintf(os.Stderr, "%s: generator ran %.2f ms late at p95 (limit %d ms): open-loop latencies are unreliable\n",
			w.name, lagP95, maxGeneratorLagMS)
	}
	return nil
}

// shardedProbes measures the cluster layer on the trace sample: how wide
// queries scatter, what merging the shards' replies costs, what the router
// adds on top of its slowest shard leg, and how many routes sharding loses.
func shardedProbes(ctx context.Context, w workload, fx *fixture, dep *deployment, ev *evaluator, router *load.Conn,
	sample []stream.Query, measured []load.Sample, rec *trace.Recorder, out map[string]float64) error {

	replicas := make([]*load.Conn, len(dep.replicas))
	for i, p := range dep.replicas {
		var err error
		if replicas[i], err = load.NewConn(p.URL); err != nil {
			return err
		}
		defer replicas[i].Close()
	}
	m := fx.cut.Map
	var width, mergeUS, overheadMS []float64
	for i, q := range sample {
		request := fmt.Sprintf("%s/%d", w.name, i)
		set := m.ScatterSet(q.Request.From, q.Request.To, q.Request.Keywords)
		width = append(width, float64(len(set)))

		// The sample replay just sent q through the router, so every leg
		// below and the router request itself are answered from the
		// replicas' result caches: what remains is the cluster layer.
		var gathered []cluster.Gathered
		var slowest time.Duration
		for _, shard := range set {
			id := rec.Start("korserve.request", request, -1)
			start := time.Now()
			status, body, err := replicas[shard].Post(q.Body)
			took := time.Since(start)
			rec.End(id)
			if err != nil {
				return fmt.Errorf("shard %d leg of trace sample %d: %w", shard, i, err)
			}
			slowest = max(slowest, took)
			ga := cluster.Gathered{Shard: shard}
			if status == http.StatusOK {
				ga.Resp = new(korapi.Response)
				if err := json.Unmarshal(body, ga.Resp); err != nil {
					return fmt.Errorf("shard %d leg of trace sample %d: %w", shard, i, err)
				}
			} else {
				var env korapi.ErrorEnvelope
				if err := json.Unmarshal(body, &env); err != nil {
					return fmt.Errorf("shard %d leg of trace sample %d: status %d: %w", shard, i, status, err)
				}
				ga.Err = &env.Error
			}
			gathered = append(gathered, ga)
		}
		id := rec.Start("cluster.Merge", request, -1)
		start := time.Now()
		cluster.Merge(q.Request.K, gathered)
		mergeUS = append(mergeUS, float64(time.Since(start))/float64(time.Microsecond))
		rec.End(id)

		start = time.Now()
		if _, _, err := router.Post(q.Body); err != nil {
			return fmt.Errorf("router leg of trace sample %d: %w", i, err)
		}
		overheadMS = append(overheadMS, ms(time.Since(start)-slowest))
	}
	out["cluster.scatter_width"] = stat.Mean(width)
	out["cluster.merge_us"] = stat.Median(mergeUS)
	out["korrouter.overhead_ms_p50"] = stat.Median(overheadMS)

	// Lost routes: the router said no_route, the unsharded graph has one.
	noRoutes, checked, lost := 0, 0, 0
	for _, s := range measured {
		if !isNoRouteReply(s.Status, s.Body) {
			continue
		}
		noRoutes++
		if checked == lostRouteChecks {
			continue
		}
		checked++
		q, err := ev.st.At(s.Index)
		if err != nil {
			return err
		}
		req, err := q.Request.KorRequest()
		if err != nil {
			return err
		}
		if resp, err := ev.full.Run(ctx, req); err == nil || len(resp.Routes) > 0 {
			lost++
		} else if !isNoRoute(err) {
			return fmt.Errorf("unsharded reference for request %d: %w", s.Index, err)
		}
	}
	if checked > 0 && len(measured) > 0 {
		out["korrouter.lost_route_share"] = float64(lost) / float64(checked) * float64(noRoutes) / float64(len(measured))
	}
	return nil
}
