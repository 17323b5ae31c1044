// Package verify checks a served answer against the benchmark's own copy of
// the graph, independently of the engine: the route is a walk of real edges
// between the requested endpoints, its reported scores are the sums of those
// edges' attributes, and its feasible flag says what Definition 4 says. A
// fast wrong answer therefore counts as a failure, not as throughput.
package verify

import (
	"fmt"
	"math"

	"kor"
	"kor/korapi"
)

// Tolerance is the relative error allowed between a reported score and the
// checker's own sum: the engine adds the same numbers in a different order.
const Tolerance = 1e-6

type edgeAttrs struct{ objective, budget float64 }

// Checker verifies responses against one graph. It is immutable after New
// and safe for concurrent use.
type Checker struct {
	g     *kor.Graph
	edges map[uint64]edgeAttrs
}

func pairKey(from, to kor.NodeID) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// New indexes g's edges. Parallel edges make a node sequence's scores
// ambiguous, so a graph carrying any is refused.
func New(g *kor.Graph) (*Checker, error) {
	c := &Checker{g: g, edges: make(map[uint64]edgeAttrs, g.NumEdges())}
	for v := kor.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, e := range g.Out(v) {
			k := pairKey(v, e.To)
			if _, dup := c.edges[k]; dup {
				return nil, fmt.Errorf("verify: parallel edges %d→%d; route scores would be ambiguous", v, e.To)
			}
			c.edges[k] = edgeAttrs{e.Objective, e.Budget}
		}
	}
	return c, nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= Tolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Check verifies every route of resp as an answer to req and returns the
// first violation found, nil when the response is sound.
func (c *Checker) Check(req korapi.Request, resp korapi.Response) error {
	if len(resp.Routes) == 0 {
		return fmt.Errorf("200 response carries no route")
	}
	if resp.Algorithm != req.Algorithm {
		return fmt.Errorf("asked for algorithm %q, answered by %q", req.Algorithm, resp.Algorithm)
	}
	want := make(map[kor.Term]bool, len(req.Keywords))
	for _, kw := range req.Keywords {
		t, ok := c.g.Vocab().Lookup(kw)
		if !ok {
			return fmt.Errorf("query keyword %q is not in the graph", kw)
		}
		want[t] = true
	}
	delta := req.BudgetLimit()
	for i, r := range resp.Routes {
		if err := c.checkRoute(req, r, want, delta); err != nil {
			return fmt.Errorf("route %d: %w", i, err)
		}
		if !r.Feasible && req.Algorithm != "greedy" {
			return fmt.Errorf("route %d: %s returned an infeasible route", i, req.Algorithm)
		}
	}
	return nil
}

func (c *Checker) checkRoute(req korapi.Request, r korapi.Route, want map[kor.Term]bool, delta float64) error {
	if len(r.Nodes) == 0 {
		return fmt.Errorf("empty node sequence")
	}
	if r.Nodes[0] != req.From || r.Nodes[len(r.Nodes)-1] != req.To {
		return fmt.Errorf("runs %d→%d, asked for %d→%d", r.Nodes[0], r.Nodes[len(r.Nodes)-1], req.From, req.To)
	}
	covered := make(map[kor.Term]bool, len(want))
	var objective, budget float64
	for i, id := range r.Nodes {
		if id < 0 || id >= int64(c.g.NumNodes()) {
			return fmt.Errorf("node %d is not in the graph", id)
		}
		v := kor.NodeID(id)
		for _, t := range c.g.Terms(v) {
			if want[t] {
				covered[t] = true
			}
		}
		if i == 0 {
			continue
		}
		e, ok := c.edges[pairKey(kor.NodeID(r.Nodes[i-1]), v)]
		if !ok {
			return fmt.Errorf("step %d→%d is not an edge", r.Nodes[i-1], id)
		}
		objective += e.objective
		budget += e.budget
	}
	if !near(objective, r.Objective) {
		return fmt.Errorf("reports objective %v, its edges sum to %v", r.Objective, objective)
	}
	if !near(budget, r.Budget) {
		return fmt.Errorf("reports budget %v, its edges sum to %v", r.Budget, budget)
	}
	// A full-coverage route whose budget is within rounding of Δ may be
	// classified either way.
	full := len(covered) == len(want)
	if full && near(budget, delta) {
		return nil
	}
	if feasible := full && budget <= delta; feasible != r.Feasible {
		return fmt.Errorf("reports feasible=%v, but covers %d of %d keywords with budget %v against Δ=%v",
			r.Feasible, len(covered), len(want), budget, delta)
	}
	return nil
}
