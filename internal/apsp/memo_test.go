package apsp

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"kor/internal/graph"
)

// TestMemoBoundAndEviction pins the store's sizing and replacement rules. A
// slice is charged what this partition can make one hold — 16 B per node and
// per border (every cell touched), the root's vector at the widest cell's
// border count, one slot per cell — and the store holds as many as the byte
// budget pays for. FIFO eviction drops exactly the oldest resident entry,
// never below memoMinEntries, and a hit neither moves nor recharges an entry.
func TestMemoBoundAndEviction(t *testing.T) {
	po := NewPartitionedOracle(ringGraph(rand.New(rand.NewSource(29)), 300, 3*300), 12)
	maxNB := 0
	for i := range po.cells {
		maxNB = max(maxNB, po.cells[i].nb)
	}
	worst := 16*int64(300+po.NumBorders()+maxNB) + sliceBlockBytes*int64(po.NumRegions()) + sliceBaseBytes
	if got := po.sliceBytes(); got != worst || maxNB == 0 {
		t.Errorf("sliceBytes = %d, want %d (%d borders, widest cell %d, %d cells)", got, worst, po.NumBorders(), maxNB, po.NumRegions())
	}
	if got, want := po.MemoStats().Capacity, int(sliceMemoBudget/worst); got != want {
		t.Errorf("slice memo capacity = %d, want %d", got, want)
	}
	if got := newMemo[int](1, 1<<20).stats(nil).Capacity; got != memoMinEntries {
		t.Errorf("one entry outweighing the budget: capacity %d, want the floor %d", got, memoMinEntries)
	}

	c := newMemo[int](6, 1) // six entries of one byte
	var calls int
	get := func(node int) int {
		return c.get(memoKey{node: graph.NodeID(node)}, func() int { calls++; return node })
	}
	for node := 0; node < 6; node++ {
		get(node)
	}
	if get(0) != 0 || calls != 6 {
		t.Fatalf("a resident entry was recomputed: %d computations", calls)
	}
	get(6) // evicts 0, the oldest, whatever its hit
	size := func(int) int64 { return 1 }
	if st := c.stats(size); st.Entries != 6 || st.Evictions != 1 || st.ResidentBytes != 6 || st.Hits != 1 || st.Misses != 7 {
		t.Fatalf("after one eviction: %+v", st)
	}
	get(1)
	if calls != 7 {
		t.Fatal("eviction dropped a younger entry")
	}
	get(0)
	if calls != 8 {
		t.Fatal("the oldest entry survived the eviction")
	}
}

// TestMemoPanickingLeader: a computation that panics must not wedge its key.
// The panic reaches the leader's caller only; a requester already waiting on
// the entry and one arriving afterwards both get a value from their own
// computation, and the dead entry is gone from the store.
func TestMemoPanickingLeader(t *testing.T) {
	c := newMemo[int](8, 1)
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
		c.get(key, compute)
	}()
	<-entered // the entry is in flight

	waiter := make(chan int, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		waiter <- c.get(key, compute)
	}()
	<-ready
	// Let the waiter reach the entry's done channel. Should it lose the race
	// it arrives after the panic and is simply a second "later caller"; the
	// assertions hold on either schedule.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	close(release)

	if r := <-leader; r == nil {
		t.Fatal("the leader's panic was swallowed")
	}
	if v := <-waiter; v != 42 { // hangs here when done is never closed
		t.Fatalf("waiter got %d, want its own computation's 42", v)
	}
	size := func(int) int64 { return 1 }
	if st := c.stats(size); st.Entries != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("dead entry still resident, or the waiter shared it: %+v", st)
	}
	if v := c.get(key, compute); v != 42 || calls.Load() != 3 {
		t.Fatalf("later caller got %d after %d computations, want a fresh 42", v, calls.Load())
	}
	if v := c.get(key, compute); v != 42 || calls.Load() != 3 {
		t.Fatalf("key did not recover: %d after %d computations", v, calls.Load())
	}
}

// TestPartitionedSlicePanicReleasesWaiters drives the same contract through
// the oracle that used to break it: a slice build that panics (here: a node
// outside the graph) must leave the key usable for well-formed requests.
func TestPartitionedSlicePanicReleasesWaiters(t *testing.T) {
	g := ringGraph(rand.New(rand.NewSource(5)), 30, 3*30)
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
