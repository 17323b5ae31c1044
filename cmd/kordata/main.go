// Command kordata generates the reproduction datasets and writes them to
// disk in the binary graph format, optionally with a JSON delta file for
// exercising the live update path.
//
// Usage:
//
//	kordata -kind flickr -seed 2012 -out city.korg
//	kordata -kind road -nodes 5000 -seed 2012 -out road5k.korg
//	kordata -kind grid -nodes 1000000 -out grid1m.korg -stats
//	kordata -kind road -nodes 200 -out g.korg -emit-delta patch.json
//	kordata -kind road -nodes 5000 -out road5k.korg -build-index road5k.kori
//	kordata -kind road -nodes 1000 -out city.korg -shard 2 -halo 3
//	kordata -ingest-nodes poi.nodes.csv -ingest-edges poi.edges.csv -out poi.korg
//	kordata -ingest-osm extract.tsv -out osm.korg -stats
//	kordata -kind grid -nodes 1000000 -emit-text grid1m
//
// -kind grid is the real-world-scale generator: a jittered lattice built
// through the streaming CSR path, practical at millions of nodes.
//
// -ingest-nodes/-ingest-edges read the two-file CSV text shape (node records
// "id,x,y[,keywords]", edge records "from,to,objective,budget");
// -ingest-osm reads the single-file OSM-extract TSV shape. Both stream
// through the two-pass builder — peak memory is the finished graph — and
// report parse failures with file:line locations.
//
// -emit-text <base> writes <base>.nodes.csv and <base>.edges.csv from the
// graph, the inverse of -ingest-nodes/-ingest-edges. For every kordata
// dataset the dump re-ingests to an identical fingerprint.
//
// -stats prints the memory-layout report the scale tier gates on: the
// graph's per-array footprint, bytes per node, the in-memory inverted
// index's bytes per posting, and the process peak RSS.
//
// -shard N cuts the graph into N region shards for the korrouter serving
// tier: city.shard0.korg … city.shard<N-1>.korg plus city.shardmap.json.
// Each shard graph keeps the full node set and vocabulary (global node IDs
// and Term numbering stay valid everywhere) but only the shard's closure —
// its owned partition regions plus a -halo hop border band — keeps edges
// and keywords. Boot one korserve per shard file (-role replica -shard-id
// <i>) and point korrouter at the shard map.
//
// -build-index runs the partitioned τ/σ pre-processing offline and persists
// it, so korserve -dist-index starts serving precomputed distances without
// paying the build at boot. The file is bound to the graph's fingerprint
// (printed here); korserve refuses it against any other graph, and refuses
// a file of another format version — one written before KORI version 3 is
// rebuilt by running -build-index again.
//
// -emit-delta writes a korapi.Delta valid against the generated graph —
// attribute drift on an edge, a new keyword, a new edge — ready to POST to
// korserve's /v1/admin/patch. The delta is validated by applying it locally
// before writing, and the pre/post fingerprints are printed so a smoke test
// can assert the patch took effect.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kor"
	"kor/internal/cluster"
	"kor/internal/gen"
	"kor/internal/graph"
	"kor/korapi"
)

func main() {
	var (
		kind        = flag.String("kind", "flickr", "dataset kind: flickr | road | grid")
		nodes       = flag.Int("nodes", 5000, "node count for -kind road / grid")
		seed        = flag.Int64("seed", 2012, "generator seed")
		out         = flag.String("out", "", "output graph file")
		ingestNodes = flag.String("ingest-nodes", "", "ingest a CSV node file (with -ingest-edges) instead of generating")
		ingestEdges = flag.String("ingest-edges", "", "CSV edge file for -ingest-nodes")
		ingestOSM   = flag.String("ingest-osm", "", "ingest an OSM-extract TSV file instead of generating")
		emitText    = flag.String("emit-text", "", "write <base>.nodes.csv and <base>.edges.csv text dumps of the graph")
		stats       = flag.Bool("stats", false, "print the memory-layout report (footprint, bytes/node, bytes/posting, peak RSS)")
		emitDelta   = flag.String("emit-delta", "", "optional output path for a JSON live-update delta valid for the generated graph")
		distIndex   = flag.String("build-index", "", "optional output path for the persistent distance index (partitioned τ/σ tables)")
		cellSize    = flag.Int("cell-size", 0, "partition region-size cap for -build-index and -shard (0 = default)")
		shards      = flag.Int("shard", 0, "cut the graph into N region shards, writing <out-base>.shard<i>.korg plus <out-base>.shardmap.json for korrouter")
		halo        = flag.Int("halo", 2, "border halo depth for -shard: undirected BFS hops replicated beyond each shard's owned nodes")
	)
	flag.Parse()
	if *out == "" && !*stats && *emitText == "" {
		fmt.Fprintln(os.Stderr, "kordata: -out is required (or -stats / -emit-text for report-only runs)")
		flag.Usage()
		os.Exit(2)
	}
	if *shards > 0 && *out == "" {
		fmt.Fprintln(os.Stderr, "kordata: -shard requires -out (shard files are named after it)")
		flag.Usage()
		os.Exit(2)
	}
	if (*ingestNodes == "") != (*ingestEdges == "") {
		fatal(fmt.Errorf("-ingest-nodes and -ingest-edges must be given together"))
	}

	var g *kor.Graph
	switch {
	case *ingestNodes != "":
		start := time.Now()
		loaded, err := kor.LoadGraphCSV(*ingestNodes, *ingestEdges)
		if err != nil {
			fatal(err)
		}
		g = loaded
		fmt.Printf("ingested %s + %s in %v\n", *ingestNodes, *ingestEdges, time.Since(start).Round(time.Millisecond))
	case *ingestOSM != "":
		start := time.Now()
		loaded, err := kor.LoadGraphOSM(*ingestOSM)
		if err != nil {
			fatal(err)
		}
		g = loaded
		fmt.Printf("ingested %s in %v\n", *ingestOSM, time.Since(start).Round(time.Millisecond))
	default:
		switch *kind {
		case "flickr":
			world, st, err := gen.FlickrGraph(gen.FlickrConfig{Seed: *seed})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("pipeline: %v\n", st)
			g = world
		case "road":
			g = kor.SyntheticRoadNetwork(*seed, *nodes)
		case "grid":
			g = kor.SyntheticGrid(*seed, *nodes)
		default:
			fatal(fmt.Errorf("unknown -kind %q (flickr, road or grid)", *kind))
		}
	}
	fmt.Printf("graph: %v\n", g.ComputeStats())

	if *out != "" {
		if err := kor.SaveGraph(*out, g); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *emitText != "" {
		if err := writeText(*emitText, g); err != nil {
			fatal(err)
		}
	}

	if *stats {
		printStats(g)
	}

	if *distIndex != "" {
		start := time.Now()
		info, err := kor.WriteDistIndex(*distIndex, g, *cellSize)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (fingerprint %016x, %d regions, %d borders, %s, built in %v)\n",
			*distIndex, info.Fingerprint, info.Regions, info.Borders,
			formatBytes(info.Bytes), time.Since(start).Round(time.Millisecond))
	}

	if *emitDelta != "" {
		if err := writeDelta(*emitDelta, g); err != nil {
			fatal(err)
		}
	}

	if *shards > 0 {
		if err := writeShards(*out, g, *shards, *cellSize, *halo); err != nil {
			fatal(err)
		}
	}
}

// writeShards cuts g into region shards and writes one graph file per shard
// plus the shard map korrouter boots from. File names derive from the main
// output path: city.korg → city.shard0.korg … plus city.shardmap.json.
func writeShards(outPath string, g *kor.Graph, shards, cellSize, halo int) error {
	cut, err := cluster.CutGraph(g, cluster.CutConfig{Shards: shards, CellSize: cellSize, Halo: halo})
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(outPath, filepath.Ext(outPath))
	for i, sg := range cut.Graphs {
		name := fmt.Sprintf("%s.shard%d.korg", base, i)
		if err := kor.SaveGraph(name, sg); err != nil {
			return err
		}
		cut.Map.Shards[i].Graph = filepath.Base(name)
		info := cut.Map.Shards[i]
		fmt.Printf("wrote %s (shard %d: %d owned, %d closure, %d edges, %d keywords, fingerprint %s)\n",
			name, i, info.Owned, info.Closure, info.Edges, len(info.Keywords), info.Fingerprint)
	}
	mapPath := base + ".shardmap.json"
	if err := cut.Map.Save(mapPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d shards, halo %d, full fingerprint %s)\n",
		mapPath, len(cut.Map.Shards), cut.Map.Halo, cut.Map.FullFingerprint)
	return nil
}

// writeText dumps g as the two-file CSV ingest shape: <base>.nodes.csv and
// <base>.edges.csv. Node ids are the dense NodeIDs; keyword names come from
// the vocabulary; edges follow CSR order, so re-ingesting reproduces the
// forward CSR byte for byte and with it the fingerprint (display names are
// not part of the text shape and are dropped).
func writeText(base string, g *kor.Graph) error {
	nodesPath, edgesPath := base+".nodes.csv", base+".edges.csv"

	nf, err := os.Create(nodesPath)
	if err != nil {
		return err
	}
	nw := bufio.NewWriterSize(nf, 1<<20)
	fmt.Fprintln(nw, "# id,x,y,keywords")
	vocab := g.Vocab()
	for v := kor.NodeID(0); int(v) < g.NumNodes(); v++ {
		p := g.Position(v)
		nw.WriteString(strconv.Itoa(int(v)))
		nw.WriteByte(',')
		nw.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
		nw.WriteByte(',')
		nw.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
		nw.WriteByte(',')
		for i, t := range g.Terms(v) {
			if i > 0 {
				nw.WriteByte(';')
			}
			nw.WriteString(vocab.Name(t))
		}
		nw.WriteByte('\n')
	}
	if err := nw.Flush(); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", nodesPath)

	ef, err := os.Create(edgesPath)
	if err != nil {
		return err
	}
	ew := bufio.NewWriterSize(ef, 1<<20)
	fmt.Fprintln(ew, "# from,to,objective,budget")
	for v := kor.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, e := range g.Out(v) {
			ew.WriteString(strconv.Itoa(int(v)))
			ew.WriteByte(',')
			ew.WriteString(strconv.Itoa(int(e.To)))
			ew.WriteByte(',')
			ew.WriteString(strconv.FormatFloat(e.Objective, 'g', -1, 64))
			ew.WriteByte(',')
			ew.WriteString(strconv.FormatFloat(e.Budget, 'g', -1, 64))
			ew.WriteByte('\n')
		}
	}
	if err := ew.Flush(); err != nil {
		ef.Close()
		return err
	}
	if err := ef.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", edgesPath)
	return nil
}

// printStats reports the memory layout: the graph's storage-array breakdown,
// the inverted index's posting compression, and the process peak RSS.
func printStats(g *kor.Graph) {
	f := g.MemFootprint()
	fmt.Printf("layout: %v\n", f)
	fmt.Printf("layout: graph %s, %.1f bytes/node\n", formatBytes(f.TotalBytes), f.BytesPerNode())
	idx := graph.NewMemIndex(g)
	if n := idx.NumPostings(); n > 0 {
		fmt.Printf("layout: index %s, %d postings, %.2f bytes/posting\n",
			formatBytes(idx.FootprintBytes()), n, float64(idx.FootprintBytes())/float64(n))
	}
	if hwm, ok := peakRSSBytes(); ok {
		fmt.Printf("layout: peak RSS %s\n", formatBytes(hwm))
	}
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// writeDelta emits a small deterministic delta that is valid for g: the
// first edge's objective drifts by 10%, node 0 gains a keyword new to the
// vocabulary, and the first absent node pair gains an edge. The delta is
// applied locally before writing — an emitted file that korserve would
// reject is a bug here, not there.
func writeDelta(path string, g *kor.Graph) error {
	var d korapi.Delta
	for v := kor.NodeID(0); int(v) < g.NumNodes(); v++ {
		if out := g.Out(v); len(out) > 0 {
			d.UpdateEdges = append(d.UpdateEdges, korapi.DeltaEdge{
				From: int64(v), To: int64(out[0].To),
				Objective: out[0].Objective * 1.1,
				Budget:    out[0].Budget,
			})
			break
		}
	}
	d.AddKeywords = append(d.AddKeywords, korapi.DeltaKeywords{
		Node: 0, Keywords: []string{"kordata_patch_marker"},
	})
addEdge:
	for from := kor.NodeID(0); int(from) < g.NumNodes(); from++ {
		for to := kor.NodeID(g.NumNodes() - 1); to > from; to-- {
			present := false
			for _, e := range g.Out(from) {
				if e.To == to {
					present = true
					break
				}
			}
			if !present {
				d.AddEdges = append(d.AddEdges, korapi.DeltaEdge{
					From: int64(from), To: int64(to),
					Objective: g.MaxObjective(), Budget: g.MaxBudget(),
				})
				break addEdge
			}
		}
	}

	kd, err := d.KorDelta()
	if err != nil {
		return err
	}
	patched, err := g.Apply(kd)
	if err != nil {
		return fmt.Errorf("emitted delta does not apply: %w", err)
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (fingerprint %016x → %016x)\n", path, g.Fingerprint(), patched.Fingerprint())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kordata:", err)
	os.Exit(1)
}
