package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kor/internal/graph"
)

// TestMemoSizing pins the sizing rule. Capacity — what a store holds whatever
// its entries' sizes — is min(entry cap, byte budget over the worst-case
// entry), floored so a store stays useful on graphs where one entry outweighs
// the budget; what it really holds is bounded by the bytes its entries are
// charged, so entries smaller than the worst case fit in greater number.
// The sweep cap of 128 entries binds until that many full sweeps fill the
// byte budget, on graphs of up to 131,070 nodes.
func TestMemoSizing(t *testing.T) {
	sweepMemo := func(nodes int) *memo[*Sweep] {
		return newMemo(sweepMemoEntries, sweepMemoBudget, compactSweepBytes(nodes), (*Sweep).bytes)
	}
	crossover := int((sweepMemoBudget/sweepMemoEntries - sweepBaseBytes) / compactNodeBytes)
	if sweepMemoEntries != 128 || crossover != 131_070 {
		t.Fatalf("sweep memo: %d entries, crossover at %d nodes; the sizing rule above no longer holds", sweepMemoEntries, crossover)
	}
	for _, tc := range []struct {
		nodes int
		want  int
	}{
		{8_000, sweepMemoEntries},     // bench-sized: the entry cap binds
		{crossover, sweepMemoEntries}, // the last graph on which it does
		{crossover + 1, sweepMemoEntries - 1},
		{1_000_000, int(sweepMemoBudget / compactSweepBytes(1_000_000))}, // 1M nodes: the byte budget binds
		{1 << 30, memoMinEntries},                                        // one sweep outweighs the budget
		{1, sweepMemoEntries},                                            // degenerate graph
	} {
		if got := sweepMemo(tc.nodes).stats(nil).Capacity; got != tc.want {
			t.Errorf("sweep memo capacity on %d nodes = %d, want %d", tc.nodes, got, tc.want)
		}
	}
	if c := sweepMemo(1_000_000).stats(nil).Capacity; c <= memoMinEntries || c >= sweepMemoEntries {
		t.Errorf("1M-node capacity %d is not strictly between the floor and the entry cap", c)
	}

	// Slices are charged what this partition can make one hold: 16 B per node
	// and per border (every cell touched), the root's vector at the widest
	// cell's border count, one slot per cell — bytes alone, no entry cap.
	po := NewPartitionedOracle(randomTestGraph(rand.New(rand.NewSource(29)), 300, false), 12)
	maxNB := 0
	for i := range po.cells {
		maxNB = max(maxNB, po.cells[i].nb)
	}
	worst := 16*int64(300+po.NumBorders()+maxNB) + sliceBlockBytes*int64(po.NumRegions()) + sliceBaseBytes
	if got := po.sliceBytes(); got != worst || maxNB == 0 {
		t.Errorf("sliceBytes = %d, want %d (%d borders, widest cell %d, %d cells)", got, worst, po.NumBorders(), maxNB, po.NumRegions())
	}
	if got, want := po.MemoStats().Capacity, int(sliceMemoBudget/worst); got != want {
		t.Errorf("slice memo capacity = %d, want %d (bytes alone)", got, want)
	}

	// Real bytes: a budget of four full sweeps — where the worst-case rule
	// stopped at four entries — holds one full sweep and forty truncated ones
	// of a twentieth its size, and starts evicting, oldest first, only when
	// the bytes run out.
	g := randomTestGraph(rand.New(rand.NewSource(23)), 400, false)
	full := sweepBytes(g.NumNodes())
	o := NewLazyOracle(g)
	o.sweeps.budget = 4 * full
	o.outOf(0, ByObjective)
	var small int64
	for root := graph.NodeID(0); root < 40; root++ {
		sw, _ := o.ReverseSweep(root, ByBudget, 0.3)
		if sw.bytes() > full/20 {
			t.Fatalf("the bound-0.3 sweep into %d holds %d bytes, more than a twentieth of a full sweep's %d", root, sw.bytes(), full)
		}
		small += sw.bytes()
	}
	if st := o.MemoStats(); st.Entries != 41 || st.Evictions != 0 || st.ResidentBytes != full+small || st.Capacity != 4 {
		t.Fatalf("one full and forty truncated sweeps: %+v, want 41 entries, no eviction, %d resident bytes, capacity 4", st, full+small)
	}
	for root := graph.NodeID(40); root < 44; root++ {
		o.PrefetchTarget(root) // two full sweeps each
	}
	st := o.MemoStats()
	if st.Evictions == 0 || st.ResidentBytes > 4*full {
		t.Fatalf("eight more full sweeps: %+v, want evictions and at most %d resident bytes", st, 4*full)
	}
	if o.full(memoKey{node: 0, metric: ByObjective, outbound: true}) != nil {
		t.Fatal("the oldest entry survived the byte-driven eviction")
	}
}

// TestMemoBoundAndEviction pins the store's two replacement rules through
// the lazy oracle: a wider sweep serves narrower requests verbatim while a
// wider request replaces the entry, and FIFO eviction drops exactly the
// oldest resident entry — a replaced entry gives up its queue slot, so its
// replacement is neither evicted early nor counted twice.
func TestMemoBoundAndEviction(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(77)), 12, false)
	o := NewLazyOracle(g)
	o.sweeps.cap = 2

	a, shared := o.ReverseSweep(0, ByBudget, 2) // [0@2]
	if shared {
		t.Fatal("cold request claimed to share")
	}
	if sw, shared := o.ReverseSweep(0, ByBudget, 1); !shared || sw != a {
		t.Fatal("narrower request did not reuse the wider resident sweep")
	}
	b, shared := o.ReverseSweep(0, ByBudget, 6) // [0@6]: replaces, takes a fresh slot
	if shared || b == a {
		t.Fatal("request wider than the resident bound must recompute")
	}
	if _, shared := o.ReverseSweep(0, ByObjective, 1); shared { // [0@6, τ0]
		t.Fatal("metrics must not share sweeps")
	}
	if st := o.MemoStats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after a replacement and one insert: %+v, want 2 entries and no eviction", st)
	}
	if sw, shared := o.ReverseSweep(0, ByBudget, 6); !shared || sw != b {
		t.Fatal("replacement entry not served")
	}
	c, _ := o.ReverseSweep(1, ByBudget, 2) // [τ0, 1@2]: evicts 0@6, the oldest
	if _, shared := o.ReverseSweep(0, ByObjective, 1); !shared {
		t.Fatal("eviction dropped a younger entry")
	}
	d, shared := o.ReverseSweep(0, ByBudget, 6) // [1@2, 0@6]: evicts τ0
	if shared {
		t.Fatal("the oldest entry should have been evicted")
	}
	resident := c.bytes() + d.bytes() // each is charged what it holds
	if st := o.MemoStats(); st.Entries != 2 || st.Evictions != 2 || st.ResidentBytes != resident {
		t.Fatalf("final stats %+v, want 2 entries, 2 evictions, %d resident bytes", st, resident)
	}
	// A full sweep serves every bound; pair lookups only ever read full ones.
	if o.full(memoKey{node: 1, metric: ByBudget}) != nil {
		t.Fatal("a truncated sweep was offered to pair lookups")
	}
	o.PrefetchTarget(1)
	if _, shared := o.ReverseSweep(1, ByBudget, 3); !shared {
		t.Fatal("full sweep did not serve a bounded request")
	}
}

// TestMemoPanickingLeader: a computation that panics must not wedge its key.
// The panic reaches the leader's caller only; a requester already waiting on
// the entry and one arriving afterwards both get a value from their own
// computation, and the dead entry is gone from the store.
func TestMemoPanickingLeader(t *testing.T) {
	c := newMemo(8, 1<<20, 1, func(int) int64 { return 1 })
	key := memoKey{node: 3, metric: ByBudget}
	var calls atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	compute := func() int {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			panic("slice build blew up")
		}
		return 42
	}

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.get(key, nil, compute)
	}()
	<-entered // the entry is in flight

	type result struct {
		v      int
		shared bool
	}
	waiter := make(chan result, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		v, shared := c.get(key, nil, compute)
		waiter <- result{v, shared}
	}()
	<-ready
	// Let the waiter reach the entry's done channel. Should it lose the race
	// it arrives after the panic and is simply a second "later caller"; the
	// assertions hold on either schedule.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if _, ok := c.peek(key); ok {
		t.Fatal("peek returned an in-flight entry")
	}
	close(release)

	if r := <-leader; r == nil {
		t.Fatal("the leader's panic was swallowed")
	}
	if r := <-waiter; r.v != 42 || r.shared { // hangs here when done is never closed
		t.Fatalf("waiter got (%d, shared=%v), want its own computation's 42", r.v, r.shared)
	}
	if _, ok := c.peek(key); ok {
		t.Fatal("dead entry still findable")
	}
	if st := c.stats(nil); st.Entries != 0 {
		t.Fatalf("dead entry still resident: %+v", st)
	}
	if v, shared := c.get(key, nil, compute); v != 42 || shared {
		t.Fatalf("later caller got (%d, shared=%v), want a fresh computation", v, shared)
	}
	if v, shared := c.get(key, nil, compute); v != 42 || !shared {
		t.Fatalf("key did not recover: (%d, shared=%v)", v, shared)
	}
}

// TestPartitionedSlicePanicReleasesWaiters drives the same contract through
// the oracle that used to break it: a slice build that panics (here: a node
// outside the graph) must leave the key usable for well-formed requests.
func TestPartitionedSlicePanicReleasesWaiters(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(5)), 30, false)
	o := NewPartitionedOracle(g, 8)
	bad := graph.NodeID(g.NumNodes() + 7)
	for i := 0; i < 2; i++ { // the second call would block forever on a leaked entry
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range slice request did not panic")
				}
			}()
			o.TargetSlice(bad, ByBudget)
		}()
	}
	if st := o.MemoStats(); st.Entries != 0 {
		t.Fatalf("panicked builds left %d entries behind", st.Entries)
	}
}

// TestMemoSweepProperty: whatever interleaving of requests, bound upgrades
// and evictions a cap-4 store goes through, every sweep it serves is
// indistinguishable — inside the requested bound — from a fresh private
// sweep at that bound: same scores bit for bit, same paths. Outside the
// bound a served sweep may know more (it may be wider), never something
// different. Run with -race.
func TestMemoSweepProperty(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(2012)), 40, true) // quantized weights: ties everywhere
	n := g.NumNodes()
	o := NewLazyOracle(g)
	o.sweeps.cap = 4
	bounds := []float64{0, 1, 2, 3, 5, 8, 13, math.Inf(1)}

	const workers, requests = 8, 150
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requests; i++ {
				// Few roots, so requests collide on keys at different bounds.
				root := graph.NodeID(rng.Intn(6))
				m := Metric(rng.Intn(2))
				bound := bounds[rng.Intn(len(bounds))]
				got, _ := o.ReverseSweep(root, m, bound)
				want := ReverseBoundedSweep(g, root, m, bound)
				if msg := sameInsideBound(got, want, m, bound, n); msg != "" {
					errs <- fmt.Sprintf("root %d metric %d bound %v: %s", root, m, bound, msg)
					return
				}
				if st := o.MemoStats(); st.Entries > 4 {
					errs <- fmt.Sprintf("%d resident entries on a cap-4 store", st.Entries)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if st := o.MemoStats(); st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("the run never shared or never evicted: %+v", st)
	}

	// Without eviction pressure, whatever order concurrent requests for one
	// key at different bounds arrive in — leaders, followers of a narrower
	// leader — the widest sweep asked for is the one resident afterwards.
	o = NewLazyOracle(g)
	for round := 0; round < 20; round++ {
		key := memoKey{node: graph.NodeID(round % 6), metric: Metric(round % 2)}
		widest := 0.0
		for _, i := range rand.New(rand.NewSource(int64(round))).Perm(len(bounds) - 1) { // finite bounds only
			bound := bounds[i] + float64(round) // wider every round: nothing resident serves it
			widest = max(widest, bound)
			wg.Add(1)
			go func() {
				defer wg.Done()
				o.ReverseSweep(key.node, key.metric, bound)
			}()
		}
		wg.Wait()
		if sw, ok := o.sweeps.peek(key); !ok || sw.bound != widest {
			t.Fatalf("round %d: resident sweep bound %v (present %v), the widest request was %v", round, sw.bound, ok, widest)
		}
	}
}

// TestMemoFollowerUpgrade: a follower whose leader publishes a value it
// cannot use replaces that value in the store instead of computing for itself
// alone, so the next request for what the follower wanted is a hit.
func TestMemoFollowerUpgrade(t *testing.T) {
	c := newMemo(8, 1<<20, 1, func(int) int64 { return 1 })
	key := memoKey{node: 1, metric: ByBudget}
	atLeast := func(b int) func(int) bool { return func(v int) bool { return v >= b } }
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		v, _ := c.get(key, atLeast(3), func() int { close(entered); <-release; return 3 })
		leader <- v
	}()
	<-entered
	follower := make(chan [2]int, 1)
	go func() {
		v, shared := c.get(key, atLeast(9), func() int { return 9 })
		s := 0
		if shared {
			s = 1
		}
		follower <- [2]int{v, s}
	}()
	for i := 0; i < 100; i++ { // let the follower reach the entry's done channel
		runtime.Gosched()
	}
	close(release)
	if v := <-leader; v != 3 {
		t.Fatalf("leader got %d, want its own 3", v)
	}
	if r := <-follower; r != [2]int{9, 0} {
		t.Fatalf("follower got (%d, shared=%d), want its own computation's 9", r[0], r[1])
	}
	if v, ok := c.peek(key); !ok || v != 9 {
		t.Fatalf("resident value (%d, %v), want the follower's 9", v, ok)
	}
	if v, shared := c.get(key, atLeast(9), func() int { return -1 }); v != 9 || !shared {
		t.Fatalf("next request got (%d, shared=%v), want the resident 9", v, shared)
	}
	if st := c.stats(nil); st.Entries != 1 || st.ResidentBytes != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want one entry of one byte after two computations", st)
	}
}

// sameInsideBound compares a served sweep against the reference sweep at the
// requested bound, returning a description of the first difference.
func sameInsideBound(got, want *Sweep, m Metric, bound float64, n int) string {
	for v := graph.NodeID(0); int(v) < n; v++ {
		wantOS, wantBS, inside := want.Scores(v)
		gotOS, gotBS, ok := got.Scores(v)
		if !inside {
			// Past the bound the served sweep may still have settled v — with
			// a primary score the caller's own bound check will reject.
			primary := gotOS
			if m == ByBudget {
				primary = gotBS
			}
			if ok && primary <= bound {
				return fmt.Sprintf("node %d settled at %v inside the bound, reference says unreachable", v, primary)
			}
			continue
		}
		if !ok || gotOS != wantOS || gotBS != wantBS {
			return fmt.Sprintf("node %d scores (%v,%v,%v), want (%v,%v,true)", v, gotOS, gotBS, ok, wantOS, wantBS)
		}
		wantPath, _ := want.Walk(v)
		if gotPath, ok := got.Walk(v); !ok || !slices.Equal(gotPath, wantPath) {
			return fmt.Sprintf("node %d path %v, want %v", v, gotPath, wantPath)
		}
	}
	return ""
}
