//go:build unix

package apsp

import (
	"runtime"
	"testing"
	"time"

	"kor/internal/gen"
)

// waitTables collects until TableMemory reports count mappings of bytes,
// failing at a deadline. A cleanup runs after the collection that found its
// oracle unreachable, on a goroutine of its own, so one runtime.GC is not
// enough to see it.
func waitTables(t *testing.T, count int, bytes int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if c, b := TableMemory(); c == count && b == bytes {
			return
		}
		if time.Now().After(deadline) {
			c, b := TableMemory()
			t.Fatalf("%d table mappings of %d bytes live, want %d of %d", c, b, count, bytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMatrixTablesOffHeap: a matrix's tables are one mapping outside the Go
// heap. Building it on a positioned graph raises the live heap by less than
// an eighth of its 40 B per pair and TableMemory by exactly them; once the
// oracle is unreachable, its cleanup unmaps them and closes Released.
func TestMatrixTablesOffHeap(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 300})
	n := g.NumNodes()
	tables := int64(40 * n * n)
	waitTables(t, 0, 0)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	o := NewMatrixOracle(g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= tables/8 {
		t.Errorf("the live heap grew by %d bytes with a matrix of %d table bytes, want < %d", grew, tables, tables/8)
	}
	if c, b := TableMemory(); c != 1 || b != tables {
		t.Fatalf("TableMemory = %d mappings of %d bytes after one build, want 1 of %d", c, b, tables)
	}
	if os, _, ok := o.MinObjective(0, 0); !ok || os != 0 {
		t.Fatalf("τ(0,0) = %v, %v; want 0", os, ok)
	}
	released := o.Released()
	runtime.GC()
	select {
	case <-released:
		t.Fatal("Released closed while the oracle is reachable")
	default:
	}
	runtime.KeepAlive(o)

	o = nil
	waitTables(t, 0, 0)
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("Released still open after the cleanup unmapped the tables")
	}
}

// TestCancelledMatrixUnmaps: a build that gives up unmaps its tables before
// it returns, without waiting for a collection.
func TestCancelledMatrixUnmaps(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 2012, Nodes: 300})
	waitTables(t, 0, 0)
	stop := make(chan struct{})
	close(stop)
	if o := BuildMatrixOracle(stop, g); o != nil {
		t.Fatal("a stopped build returned tables")
	}
	if c, b := TableMemory(); c != 0 || b != 0 {
		t.Fatalf("TableMemory = %d mappings of %d bytes after a cancelled build, want none", c, b)
	}
}
