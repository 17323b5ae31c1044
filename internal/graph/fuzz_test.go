package graph

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the graph loader: it must reject or
// accept them without panicking, and anything it accepts must round-trip.
func FuzzLoad(f *testing.F) {
	// Seed with a valid file and a few mutations.
	b := NewBuilder()
	v0 := b.AddNode("a", "b")
	v1 := b.AddNode("c")
	if err := b.AddEdge(v0, v1, 1.5, 2.5); err != nil {
		f.Fatal(err)
	}
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("KORG"))
	f.Add([]byte{})
	// A file whose edge section is out of source order, as a writer other
	// than Save may produce.
	permuted, order := permutedSave(f, randomGraph(rand.New(rand.NewSource(3)), 12), rand.New(rand.NewSource(4)))
	if slices.IsSortedFunc(order, func(a, b [4]float64) int { return cmp.Compare(a[0], b[0]) }) {
		f.Fatal("permuted seed is in source order")
	}
	f.Add(permuted)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted graphs must be internally consistent, keep the file's
		// vocabulary entry for entry, and be re-saveable.
		checkCSRMirror(t, g)
		if want := fileVocab(data); !slices.Equal(g.Vocab().Names(), want) {
			t.Fatalf("vocabulary %q, file lists %q", g.Vocab().Names(), want)
		}
		var out bytes.Buffer
		if err := g.Save(&out); err != nil {
			t.Fatalf("accepted graph failed to save: %v", err)
		}
		g2, err := Load(&out)
		if err != nil {
			t.Fatalf("round trip of accepted graph failed: %v", err)
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatal("round trip changed the fingerprint")
		}
	})
}
