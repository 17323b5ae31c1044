package verify

import (
	"strings"
	"testing"

	"kor"
	"kor/korapi"
)

// testGraph is a → b → c → d with a detour a → c, keywords on b and c.
func testGraph(t *testing.T) *kor.Graph {
	t.Helper()
	b := kor.NewBuilder()
	a := b.AddNode()
	bb := b.AddNode("cafe")
	c := b.AddNode("park")
	d := b.AddNode()
	for _, e := range []struct {
		from, to kor.NodeID
		obj, bud float64
	}{{a, bb, 1, 2}, {bb, c, 2, 3}, {c, d, 4, 5}, {a, c, 10, 1}} {
		if err := b.AddEdge(e.from, e.to, e.obj, e.bud); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func request(algo string, budget float64) korapi.Request {
	return korapi.Request{From: 0, To: 3, Keywords: []string{"cafe", "park"}, Budget: budget, Algorithm: algo}
}

func response(algo string, r korapi.Route) korapi.Response {
	return korapi.Response{Algorithm: algo, Routes: []korapi.Route{r}}
}

var good = korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 7, Budget: 10, Feasible: true}

func TestCheckAcceptsSoundAnswer(t *testing.T) {
	c, err := New(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(request("osscaling", 10), response("osscaling", good)); err != nil {
		t.Errorf("sound answer rejected: %v", err)
	}
	// Sums that differ in the last bits are the same sums.
	r := good
	r.Objective = 7 * (1 + 1e-9)
	if err := c.Check(request("osscaling", 10), response("osscaling", r)); err != nil {
		t.Errorf("rounding-level difference rejected: %v", err)
	}
}

func TestCheckRejectsCorruptedRoutes(t *testing.T) {
	c, err := New(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*korapi.Route)) korapi.Route {
		r := good
		r.Nodes = append([]int64(nil), good.Nodes...)
		mutate(&r)
		return r
	}
	cases := []struct {
		name  string
		req   korapi.Request
		resp  korapi.Response
		wants string
	}{
		{"no routes", request("osscaling", 10), korapi.Response{Algorithm: "osscaling"}, "no route"},
		{"other algorithm", request("osscaling", 10), response("greedy", good), "answered by"},
		{"wrong start", request("osscaling", 10), response("osscaling", corrupt(func(r *korapi.Route) { r.Nodes[0] = 1 })), "asked for"},
		{"wrong end", request("osscaling", 10), response("osscaling", corrupt(func(r *korapi.Route) { r.Nodes = r.Nodes[:3] })), "asked for"},
		{"teleport", request("osscaling", 10), response("osscaling", corrupt(func(r *korapi.Route) { r.Nodes = []int64{0, 1, 3} })), "not an edge"},
		{"node out of range", request("osscaling", 10), response("osscaling", corrupt(func(r *korapi.Route) { r.Nodes[1] = 99 })), "not in the graph"},
		{"objective understated", request("osscaling", 10), response("osscaling", corrupt(func(r *korapi.Route) { r.Objective = 6 })), "objective"},
		{"budget understated", request("osscaling", 10), response("osscaling", corrupt(func(r *korapi.Route) { r.Budget = 9 })), "budget"},
		{"over budget called feasible", request("osscaling", 8), response("osscaling", good), "feasible"},
		{"keyword missed called feasible", request("osscaling", 10),
			response("osscaling", korapi.Route{Nodes: []int64{0, 2, 3}, Objective: 14, Budget: 6, Feasible: true}), "feasible"},
		{"feasible called infeasible", request("greedy", 12), response("greedy", corrupt(func(r *korapi.Route) { r.Feasible = false })), "feasible"},
		{"infeasible from a label algorithm", request("bucketbound", 8),
			response("bucketbound", corrupt(func(r *korapi.Route) { r.Feasible = false })), "infeasible"},
		{"unknown keyword", korapi.Request{From: 0, To: 3, Keywords: []string{"zoo"}, Budget: 10, Algorithm: "osscaling"},
			response("osscaling", good), "not in the graph"},
	}
	for _, tc := range cases {
		err := c.Check(tc.req, tc.resp)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wants)
		}
	}
}

func TestCheckAllowsGreedyOvershoot(t *testing.T) {
	c, err := New(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	r := good
	r.Feasible = false
	if err := c.Check(request("greedy", 8), response("greedy", r)); err != nil {
		t.Errorf("greedy budget overshoot, honestly flagged, rejected: %v", err)
	}
}

func TestNewRefusesParallelEdges(t *testing.T) {
	b := kor.NewBuilder()
	x, y := b.AddNode("a"), b.AddNode("b")
	for range 2 {
		if err := b.AddEdge(x, y, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(b.MustBuild()); err == nil {
		t.Error("graph with parallel edges accepted")
	}
}
