package apsp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"kor/internal/graph"
)

// fuzzIndexGraph builds the small fixed graph the fuzz corpus is keyed to.
func fuzzIndexGraph() *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode()
	}
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}}
	for i, e := range edges {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), float64(1+i%3), float64(2+i%2)); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

// FuzzOpenIndex mutates KORI index bytes and re-opens them against the
// graph they claim to serve. OpenIndex must never panic or accept garbage
// silently: every failure wraps exactly one of the typed sentinels
// (ErrIndexFormat, ErrIndexVersion, ErrIndexFingerprint), and anything it
// does accept must re-write to the same bytes and still answer a distance
// query without crashing.
func FuzzOpenIndex(f *testing.F) {
	g := fuzzIndexGraph()
	seedPath := filepath.Join(f.TempDir(), "seed.kori")
	if err := NewPartitionedOracle(g, 3).WriteIndexFile(seedPath); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte("KORI"))
	f.Add([]byte{})
	if len(valid) > 64 {
		flipped := append([]byte(nil), valid...)
		flipped[40] ^= 0xff // inside the header, after the magic
		f.Add(flipped)
		tail := append([]byte(nil), valid...)
		tail[len(tail)-1] ^= 0xff
		f.Add(tail)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.kori")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		oracle, err := OpenIndex(path, g)
		if err != nil {
			n := 0
			for _, sentinel := range []error{ErrIndexFormat, ErrIndexVersion, ErrIndexFingerprint} {
				if errors.Is(err, sentinel) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("OpenIndex error %v wraps %d typed sentinels, want exactly 1", err, n)
			}
			return
		}
		defer oracle.Close()
		// An accepted index is one the writer produces: re-writing it
		// reproduces the input byte for byte.
		var rewritten bytes.Buffer
		if err := oracle.WriteIndex(&rewritten); err != nil {
			t.Fatalf("re-writing an accepted index: %v", err)
		}
		if !bytes.Equal(rewritten.Bytes(), data) {
			t.Fatal("re-writing an accepted index changed its bytes")
		}
		// An accepted index must serve queries and paths without crashing.
		if prim, _, ok := oracle.MinObjective(0, 5); ok && prim < 0 {
			t.Fatalf("accepted index returned negative distance %v", prim)
		}
		oracle.MinObjectivePath(0, 5)
	})
}
