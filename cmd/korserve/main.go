// Command korserve exposes a KOR dataset over HTTP — the "map service"
// deployment the paper's introduction motivates.
//
// Usage:
//
//	korserve -graph city.korg [-addr :8080] [-timeout 10s] [-cache 1024]
//	         [-max-inflight 0] [-queue 0] [-queue-wait 100ms]
//	         [-dist-index city.kori]
//
// -dist-index loads a persistent distance oracle built offline by
// kordata -build-index, skipping the τ/σ pre-processing at boot: the server
// mmaps the precomputed partition tables and serves from them immediately.
// The index is bound to the graph's fingerprint — starting with a
// non-matching file fails rather than serving wrong distances. If a later
// /v1/admin/patch or /v1/admin/reload changes the graph, the server logs the
// divergence and falls back to a lazy oracle (visible as degraded in
// /v1/stats and /metrics) instead of serving stale distances.
//
// Endpoints (see the korapi package for the wire types):
//
//	GET  /v1/route?from=12&to=80&keywords=cafe,jazz&budget=6
//	     [&algorithm=bucketbound|osscaling|greedy|topk|exact|bruteforce]
//	     [&k=3][&epsilon=0.5][&beta=1.2][&alpha=0.5][&width=2]
//	     [&metrics=true][&format=geojson]
//	POST /v1/route      korapi.Request
//	POST /v1/batch      korapi.BatchRequest (heterogeneous algorithms/options)
//	GET  /v1/nodes/{id}
//	GET  /v1/keywords?prefix=caf&limit=10
//	GET  /v1/stats
//	GET  /metrics          Prometheus text exposition
//	POST /v1/admin/patch   korapi.Delta — apply a live graph update
//	POST /v1/admin/reload  re-read the -graph file and swap it in
//
// Every error is the korapi envelope {"error":{"code":...,"message":...}}
// with a machine-readable code.
//
// One Engine serves every request: the engine is safe for concurrent use,
// so handlers run in parallel with no per-request rebuild and no global
// query lock. Each request gets a deadline (-timeout) through its context,
// and SIGINT/SIGTERM drains in-flight requests before exiting. The admin
// endpoints swap the serving graph atomically: in-flight queries finish on
// the snapshot they started with. They are unauthenticated — keep them
// behind your deployment's access controls.
//
// Admission control: at most -max-inflight query requests (route + batch)
// run concurrently; up to -queue more wait at most -queue-wait for a slot,
// and everything beyond that is shed immediately with a 429 "overloaded"
// envelope and a Retry-After header. Searches are NP-hard — bounding
// concurrency keeps latency flat and memory bounded under bursts, and a
// shed request costs the server microseconds instead of a search. Cheap
// endpoints (stats, nodes, keywords, metrics, admin) bypass the gate so
// operators can observe a saturated server.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"kor"
	"kor/internal/metrics"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "graph file written by kordata (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request search deadline (0 disables)")
		batchPar    = flag.Int("batch-parallelism", 0, "worker pool size for /v1/batch (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 1024, "result cache capacity in responses (0 disables)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrent query requests (0 = 4×GOMAXPROCS, negative disables admission control)")
		maxQueue    = flag.Int("queue", -1, "max requests waiting for admission (-1 = 2×max-inflight, 0 = shed immediately at the limit)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "longest a request may wait for admission before a 429")
		drain       = flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight requests")
		distIndex   = flag.String("dist-index", "", "persistent distance index built by kordata -build-index (must match -graph)")
		role        = flag.String("role", "", "serving role reported in /v1/stats: \"\" (standalone) or \"replica\" behind a korrouter")
		shardID     = flag.String("shard-id", "", "shard this replica serves, as named by kordata -shard (reported in /v1/stats)")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "korserve: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	inFlight := *maxInFlight
	if inFlight == 0 {
		inFlight = 4 * runtime.GOMAXPROCS(0)
	}
	queue := *maxQueue
	if queue < 0 {
		queue = 2 * inFlight
	}
	g, err := kor.LoadGraph(*graphPath)
	if err != nil {
		log.Fatalf("korserve: %v", err)
	}
	reg := metrics.NewRegistry()
	eng, err := kor.NewEngine(g, &kor.EngineConfig{
		CacheSize:     *cacheSize,
		Metrics:       reg,
		DistIndexPath: *distIndex,
	})
	if err != nil {
		log.Fatalf("korserve: %v", err)
	}
	if *distIndex != "" {
		ost := eng.OracleStatus()
		log.Printf("korserve: distance index %s: fingerprint %016x, %d bytes, mapped=%v, loaded in %v",
			*distIndex, ost.IndexFingerprint, ost.IndexBytes, ost.Mapped, ost.LoadTime.Round(time.Microsecond))
	}
	if *role != "" && *role != "replica" {
		fmt.Fprintf(os.Stderr, "korserve: unknown -role %q (want \"\" or \"replica\")\n", *role)
		os.Exit(2)
	}
	s := newServer(eng, serverConfig{
		graphPath:   *graphPath,
		timeout:     *timeout,
		maxPar:      *batchPar,
		maxInFlight: inFlight,
		maxQueue:    queue,
		queueWait:   *queueWait,
		role:        *role,
		shardID:     *shardID,
		registry:    reg,
	})
	if *role != "" {
		log.Printf("korserve: serving as %s for shard %q", *role, *shardID)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if s.lim != nil {
			log.Printf("korserve: %d nodes, %d edges, listening on %s (max-inflight %d, queue %d, queue-wait %s)",
				g.NumNodes(), g.NumEdges(), *addr, inFlight, queue, *queueWait)
		} else {
			log.Printf("korserve: %d nodes, %d edges, listening on %s (admission control disabled)",
				g.NumNodes(), g.NumEdges(), *addr)
		}
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("korserve: %v", err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let admitted and queued requests
	// finish within the grace period, then exit. Requests still running when
	// the period lapses are abandoned by Shutdown returning.
	log.Print("korserve: shutting down, draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("korserve: shutdown: %v", err)
	}
}
