package core

import (
	"fmt"
	"math"
)

// MaxWidth is the widest greedy beam Validate accepts. The paper defines
// Greedy-1 and Greedy-2; every distinct waypoint of a wider beam holds an
// O(|V|) frontier for the query's life, so a width from the wire must not
// be unbounded (on an 8,000-node road network width 128 took 6.4 s and
// 132 MiB of heap).
const MaxWidth = 4

// MaxK is the most routes a top-k query may ask for. The paper's Fig. 16
// sweeps k ≤ 5. The labels a KkR search creates grow about linearly in k
// and its time about quadratically: over six TopK queries on an 800-node
// road network (Δ 8–12, three frequent keywords) the slowest took 2.1 ms at
// k = 10, 16 ms at k = 32 and 85 ms at k = 64; at k = 100 a query took
// 0.23 s, and at k = 1,000 one was still running after 90 s. A k from the
// wire must therefore be bounded. 32 is six times the paper's largest k and
// keeps a search within tens of milliseconds.
const MaxK = 32

// defaultMaxExpansions is the label cap a zero Options.MaxExpansions selects,
// and the most Validate accepts: like the width, a cap from the wire may
// lower the server's, never lift it.
const defaultMaxExpansions = 20_000_000

// Options tunes the search algorithms. The zero value is not meaningful;
// start from DefaultOptions. Field defaults mirror the paper's experimental
// defaults (§4.1): ε=0.5, β=1.2, α=0.5, width 1, k=1, optimization
// strategy 2 on. Strategy 1, the paper's σ-shortcut jump, is not
// implemented: on this stack it slowed every oracle down (DESIGN.md).
type Options struct {
	// Epsilon is OSScaling's scaling parameter ε ∈ (0,1). Larger values run
	// faster; the returned objective is within 1/(1−ε) of optimal
	// (Theorem 2).
	Epsilon float64
	// Beta is BucketBound's bucket base β > 1. Larger values run faster;
	// the bound becomes β/(1−ε) (Theorem 3).
	Beta float64
	// Alpha balances objective (α→1) against budget (α→0) in the greedy
	// node score (Equation 1).
	Alpha float64
	// Width is the greedy beam width: 1 for Greedy-1, 2 for Greedy-2, at
	// most MaxWidth.
	Width int
	// K asks for the top-k routes (the KkR query), at most MaxK. 1 means the
	// plain KOR.
	K int
	// DisableStrategy2 turns off optimization strategy 2 (pruning through
	// the nodes of infrequent query keywords).
	DisableStrategy2 bool
	// InfrequentFraction is strategy 2's document-frequency threshold: the
	// strategy applies when the rarest query keyword appears on at most
	// this fraction of nodes. The paper suggests 1%.
	InfrequentFraction float64
	// BudgetPriority switches Greedy to the budget-first variant of §3.4:
	// the returned route respects Δ but may leave keywords uncovered.
	BudgetPriority bool
	// MaxExpansions caps label creations (0 = the default cap, which is also
	// the most it may be). The label algorithms return ErrSearchLimit when
	// the cap fires, which on sane inputs means a pathological query rather
	// than a correct long search.
	MaxExpansions int
	// Tracer, when set, observes every label event. Used by tests to replay
	// the paper's Example 2 and by tools for diagnostics.
	Tracer Tracer
}

// DefaultOptions returns the paper's experimental defaults.
func DefaultOptions() Options {
	return Options{
		Epsilon:            0.5,
		Beta:               1.2,
		Alpha:              0.5,
		Width:              1,
		K:                  1,
		InfrequentFraction: 0.01,
		MaxExpansions:      defaultMaxExpansions,
	}
}

// Validate rejects tuning values outside the algorithms' domains: ε∈(0,1),
// finite β>1, α∈[0,1], 1≤K≤MaxK, 1≤Width≤MaxWidth, MaxExpansions at most
// defaultMaxExpansions. Each range test is negated rather than inverted, so
// NaN, which fails every comparison, fails it too.
// Every violation is reported as an ErrBadQuery wrap, so callers test with
// errors.Is(err, ErrBadQuery).
// Validate is stricter than the legacy entry points, which silently lifted K
// and Width to 1: Engine.Run calls it so a misconfigured request fails fast
// instead of degrading to defaults.
func (o Options) Validate() error {
	if !(o.Epsilon > 0 && o.Epsilon < 1) {
		return fmt.Errorf("%w: epsilon %v must lie in (0,1)", ErrBadQuery, o.Epsilon)
	}
	if !(o.Beta > 1 && o.Beta < math.Inf(1)) {
		return fmt.Errorf("%w: beta %v must be finite and exceed 1", ErrBadQuery, o.Beta)
	}
	if !(o.Alpha >= 0 && o.Alpha <= 1) {
		return fmt.Errorf("%w: alpha %v must lie in [0,1]", ErrBadQuery, o.Alpha)
	}
	if o.K < 1 || o.K > MaxK {
		return fmt.Errorf("%w: k %d must lie in [1,%d]", ErrBadQuery, o.K, MaxK)
	}
	if o.Width < 1 || o.Width > MaxWidth {
		return fmt.Errorf("%w: width %d must lie in [1,%d]", ErrBadQuery, o.Width, MaxWidth)
	}
	if o.MaxExpansions > defaultMaxExpansions {
		return fmt.Errorf("%w: max expansions %d exceed %d", ErrBadQuery, o.MaxExpansions, defaultMaxExpansions)
	}
	return nil
}

// normalize validates and fills derived defaults. Unlike Validate it is
// lenient on K and Width (lifted to 1): the Searcher's methods accept them,
// while Engine.Run rejects them up front through Validate.
func (o Options) normalize() (Options, error) {
	o.Width, o.K = max(o.Width, 1), max(o.K, 1)
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.InfrequentFraction <= 0 {
		o.InfrequentFraction = 0.01
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = defaultMaxExpansions
	}
	return o, nil
}

// Metrics counts the work a search performed; the experiment harness uses
// them to explain the runtime gaps the paper reports (e.g. BucketBound
// creating far fewer labels than OSScaling).
type Metrics struct {
	LabelsCreated   int // labels built by label treatment (Definition 7)
	LabelsEnqueued  int
	LabelsDequeued  int
	PrunedBudget    int // dropped: cannot meet Δ via the best σ tail
	PrunedBound     int // dropped: cannot beat the upper bound U via the best τ tail
	PrunedStrategy2 int // dropped by the infrequent-keyword conditions
	Dominated       int // dropped by (k-)domination (Definition 6)
	DominatedSwept  int // existing labels deleted by a new dominator
	Feasible        int // feasible candidates encountered
	PeakQueue       int // largest queue population
	PlanSweeps      int // Dijkstra runs the plan started: bounded candidate sweeps (Δ−σ(c,t) for σ, U for τ) plus opened frontiers (the τ tail, Greedy's waypoints, the prune's source); 0 on an oracle that runs none
	SharedSweeps    int // always 0: plans share no sweeps; kept for readers of earlier reports
}

// add accumulates counters from another run (used when averaging workloads).
func (m *Metrics) add(o Metrics) {
	m.LabelsCreated += o.LabelsCreated
	m.LabelsEnqueued += o.LabelsEnqueued
	m.LabelsDequeued += o.LabelsDequeued
	m.PrunedBudget += o.PrunedBudget
	m.PrunedBound += o.PrunedBound
	m.PrunedStrategy2 += o.PrunedStrategy2
	m.Dominated += o.Dominated
	m.DominatedSwept += o.DominatedSwept
	m.Feasible += o.Feasible
	m.PlanSweeps += o.PlanSweeps
	m.SharedSweeps += o.SharedSweeps
	if o.PeakQueue > m.PeakQueue {
		m.PeakQueue = o.PeakQueue
	}
}

// Add is the exported accumulator used by the experiment harness.
func (m *Metrics) Add(o Metrics) { m.add(o) }

// TraceKind classifies label events for the Tracer.
type TraceKind int

// Trace event kinds.
const (
	TraceCreated TraceKind = iota
	TraceEnqueued
	TraceDequeued
	TracePrunedBudget
	TracePrunedBound
	TracePrunedStrategy2
	TraceDominated
	TraceFeasible
	TraceUpperBound
)

// String names the kind for logs.
func (k TraceKind) String() string {
	switch k {
	case TraceCreated:
		return "created"
	case TraceEnqueued:
		return "enqueued"
	case TraceDequeued:
		return "dequeued"
	case TracePrunedBudget:
		return "pruned-budget"
	case TracePrunedBound:
		return "pruned-bound"
	case TracePrunedStrategy2:
		return "pruned-strategy2"
	case TraceDominated:
		return "dominated"
	case TraceFeasible:
		return "feasible"
	case TraceUpperBound:
		return "upper-bound"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TraceEvent is one observation of the label lifecycle. Scores are the
// label's cumulative scores at event time; U is the current upper bound
// (meaningful for TraceUpperBound).
type TraceEvent struct {
	Kind  TraceKind
	Label LabelView
	U     float64
}

// Tracer observes label events. Implementations must be cheap; the hot loop
// calls them for every label.
type Tracer interface {
	Trace(TraceEvent)
}
