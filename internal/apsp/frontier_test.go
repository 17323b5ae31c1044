package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"kor/internal/graph"
)

// frontierAgrees advances f until it drains, checking it at every prefix
// against the bounded sweep at the radius of its last settled node: the
// frontier's settle order is that sweep's settle order up to nodes tied at
// the radius, every settled node carries the sweep's scores, parent and walk,
// and once Head passes the radius the two have settled the same nodes.
func frontierAgrees(g *graph.Graph, f *Frontier, root graph.NodeID, m Metric, reverse bool) string {
	if len(f.Order()) != 0 || f.Head() != 0 {
		return "a fresh frontier has settled nodes or a head past its root"
	}
	for f.Next() {
		order := f.Order()
		last := order[len(order)-1]
		r := f.sc.primary[last]
		want := dijkstraBounded(g, root, m, reverse, r)
		if len(order) > len(want.nodes) {
			return fmt.Sprintf("%d settled at radius %v, the bounded sweep settles %d", len(order), r, len(want.nodes))
		}
		if !slices.Equal(order, want.nodes[:len(order)]) {
			return fmt.Sprintf("radius %v: settle order %v, want a prefix of %v", r, order, want.nodes)
		}
		for _, v := range want.nodes[len(order):] {
			if f.Settled(v) || f.sc.primary[v] > r {
				return fmt.Sprintf("radius %v: node %d missing from the order is not tied at the radius", r, v)
			}
		}
		if h := f.Head(); (h > r) != (len(order) == len(want.nodes)) || h < r {
			return fmt.Sprintf("radius %v: head %v with %d of %d nodes settled", r, h, len(order), len(want.nodes))
		}
		for _, v := range order {
			os, bs, ok := f.Scores(v)
			wos, wbs, _ := want.scores(v, m)
			if !ok || os != wos || bs != wbs || f.sc.parent[v] != want.parent[want.pos(v)] {
				return fmt.Sprintf("radius %v node %d: (%v, %v, parent %d), want (%v, %v, parent %d)", r, v,
					os, bs, f.sc.parent[v], wos, wbs, want.parent[want.pos(v)])
			}
		}
		wantWalk := walkForward
		if reverse {
			wantWalk = walkReverse
		}
		got, _ := f.Walk(last)
		if w, _ := wantWalk(want, root, last); !slices.Equal(got, w) {
			return fmt.Sprintf("node %d: walk %v, want %v", last, got, w)
		}
	}
	if !math.IsInf(f.Head(), 1) {
		return "a drained frontier reports a finite head"
	}
	full := dijkstra(g, root, m, reverse)
	if len(f.Order()) != full.count() {
		return fmt.Sprintf("drained after %d nodes, the full sweep reaches %d", len(f.Order()), full.count())
	}
	return ""
}

// TestFrontierMatchesSweep: a frontier advanced node by node is, at every
// prefix, the bounded sweep at that radius — in a fresh scratch and in one
// worn by bounded runs and abandoned frontiers — and a scratch a frontier
// left mid-run serves the next bounded run bit for bit.
func TestFrontierMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2701))
	for trial := 0; trial < 3; trial++ {
		for gi, g := range sweepTestGraphs(rng) {
			n := g.NumNodes()
			worn := getScratch(n) // kept out of the pool: the test owns its history
			for i := 0; i < 300; i++ {
				root, m, reverse := graph.NodeID(rng.Intn(n)), Metric(rng.Intn(2)), rng.Intn(2) == 0
				if i%2 == 0 { // a frontier abandoned part way
					worn.start(g, root, m, reverse)
					for k := rng.Intn(n); k > 0 && worn.head() < math.Inf(1); k-- {
						worn.step(math.Inf(1))
					}
				} else {
					worn.run(g, root, m, reverse, float64(rng.Intn(8)))
				}
			}
			for _, m := range []Metric{ByObjective, ByBudget} {
				for _, reverse := range []bool{false, true} {
					root := graph.NodeID(rng.Intn(n))
					name := fmt.Sprintf("trial %d graph %d metric %d reverse %v root %d", trial, gi, m, reverse, root)
					fresh := &Frontier{sc: getScratch(n), root: root}
					fresh.sc.start(g, root, m, reverse)
					if msg := frontierAgrees(g, fresh, root, m, reverse); msg != "" {
						t.Fatalf("%s, fresh scratch: %s", name, msg)
					}
					fresh.Close()
					wornF := &Frontier{sc: worn, root: root}
					worn.start(g, root, m, reverse)
					if msg := frontierAgrees(g, wornF, root, m, reverse); msg != "" {
						t.Fatalf("%s, worn scratch: %s", name, msg)
					}

					// Leave a frontier mid-run, then run a bounded sweep in its
					// scratch.
					worn.start(g, root, m, reverse)
					for k := rng.Intn(n); k > 0 && worn.head() < math.Inf(1); k-- {
						worn.step(math.Inf(1))
					}
					next, bound := graph.NodeID(rng.Intn(n)), float64(rng.Intn(8))
					worn.run(g, next, 1-m, !reverse, bound)
					if want := dijkstraBounded(g, next, 1-m, !reverse, bound); !reflect.DeepEqual(worn.compact(), want) {
						t.Fatalf("%s: a scratch left mid-frontier produced a different bounded sweep", name)
					}
				}
			}
		}
	}
}

// TestFrontierPoolConcurrent: eight goroutines opening frontiers through one
// oracle, scratches shared through the one pool, each drive theirs to the
// full sweep's answer, and every frontier is accounted for once closed. Run
// with -race.
func TestFrontierPoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2702))
	g := randomTestGraph(rng, 80, true)
	o := NewLazyOracle(g)
	n := g.NumNodes()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	var want int64
	for w := 0; w < 8; w++ {
		seed := rng.Int63()
		r := rand.New(rand.NewSource(seed)) // the worker's draws, replayed
		for rep := 0; rep < 40; rep++ {
			root, m, outbound := graph.NodeID(r.Intn(n)), Metric(r.Intn(2)), r.Intn(2) == 0
			want += int64(dijkstra(g, root, m, !outbound).count())
		}
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for rep := 0; rep < 40; rep++ {
				root, m, outbound := graph.NodeID(r.Intn(n)), Metric(r.Intn(2)), r.Intn(2) == 0
				f := o.Frontier(root, m, outbound)
				for f.Next() {
				}
				ref := dijkstra(g, root, m, !outbound)
				for _, v := range f.Order() {
					os, bs, _ := f.Scores(v)
					wos, wbs, _ := ref.scores(v, m)
					if os != wos || bs != wbs {
						errs <- fmt.Sprintf("root %d node %d: a pooled frontier scored (%v, %v), want (%v, %v)", root, v, os, bs, wos, wbs)
						f.Close()
						return
					}
				}
				f.Close()
			}
		}(rand.New(rand.NewSource(seed)))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if open, settled := o.FrontierStats(); open != 0 || settled != want {
		t.Fatalf("frontier stats: %d open, %d settled; want 0 open, %d settled", open, settled, want)
	}
}
