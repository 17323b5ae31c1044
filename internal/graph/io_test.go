package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"kor/internal/geo"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return got
}

func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
	}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		wt, gt := want.Terms(v), got.Terms(v)
		if len(wt) != len(gt) {
			t.Fatalf("node %d terms differ", v)
		}
		for i := range wt {
			if want.Vocab().Name(wt[i]) != got.Vocab().Name(gt[i]) {
				t.Fatalf("node %d term %d differs", v, i)
			}
		}
		we, ge := want.Out(v), got.Out(v)
		if len(we) != len(ge) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("node %d edge %d: %+v vs %+v", v, i, we[i], ge[i])
			}
		}
		if want.Position(v) != got.Position(v) {
			t.Fatalf("node %d position differs", v)
		}
		if want.Name(v) != got.Name(v) {
			t.Fatalf("node %d name differs", v)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	assertGraphsEqual(t, g, roundTrip(t, g))
}

func TestSaveLoadWithPositionsAndNames(t *testing.T) {
	b := NewBuilder()
	v0 := b.AddNode("museum")
	v1 := b.AddNode("pub", "jazz")
	if err := b.SetPosition(v0, geo.Point{X: -73.98, Y: 40.75}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPosition(v1, geo.Point{X: -73.96, Y: 40.78}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetName(v0, "MoMA"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(v0, v1, 0.5, 2.25); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	got := roundTrip(t, g)
	assertGraphsEqual(t, g, got)
	if !got.HasPositions() {
		t.Error("positions lost in round trip")
	}
}

func TestSaveLoadEmptyGraph(t *testing.T) {
	g := NewBuilder().MustBuild()
	assertGraphsEqual(t, g, roundTrip(t, g))
}

func TestSaveLoadRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 40)
		assertGraphsEqual(t, g, roundTrip(t, g))
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("NOPE....")))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 2} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Load accepted file truncated to %d bytes", cut)
		}
	}
}

// Failure injection: flip a byte anywhere in the payload; Load must reject
// the file (checksum) or at worst return a structurally valid graph when the
// flip is in the trailing CRC itself — never crash.
func TestLoadDetectsCorruption(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rng := rand.New(rand.NewSource(33))
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		corrupted := append([]byte(nil), full...)
		pos := 4 + rng.Intn(len(full)-4) // keep magic intact: that path is tested above
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Load(bytes.NewReader(corrupted)); err != nil {
			rejected++
		}
	}
	if rejected < trials*9/10 {
		t.Errorf("only %d/%d corruptions rejected; checksum too weak?", rejected, trials)
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte (little-endian u32 after magic)
	if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// A vocabulary entry that repeats an earlier one would intern to the earlier
// term and shift every later entry onto the wrong keyword: in a file whose
// vocabulary is [a a b], the node tagged with term 1 would read "b". Load
// refuses the file.
func TestLoadRejectsRepeatedVocabEntry(t *testing.T) {
	vocab := NewVocabulary()
	for _, s := range []string{"a", "x", "b"} {
		vocab.Intern(s)
	}
	b := NewBuilderWithVocab(vocab)
	v0 := b.AddNode("a")
	v1 := b.AddNode("x")
	if err := b.AddEdge(v0, v1, 1, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.MustBuild().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fileVocab(buf.Bytes()); len(got) != 3 || got[0] != "a" || got[1] != "x" || got[2] != "b" {
		t.Fatalf("saved vocabulary %q, want [a x b]", got)
	}
	// Rewrite the vocabulary to [a a b], checksum recomputed.
	data := bytes.Replace(buf.Bytes(), []byte{1, 0, 0, 0, 'x'}, []byte{1, 0, 0, 0, 'a'}, 1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[len(formatMagic):len(data)-4]))
	if got := fileVocab(data); len(got) != 3 || got[1] != "a" {
		t.Fatalf("rewritten vocabulary %q, want [a a b]", got)
	}
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Load of vocabulary [a a b]: err = %v, want ErrBadFormat", err)
	}
}

// fileVocab returns the vocabulary entries of a KORG file in file order, or
// nil when the file ends inside the vocabulary.
func fileVocab(data []byte) []string {
	off := len(formatMagic) + 4 + 1 // magic, version, flags
	u32 := func() (int, bool) {
		if off+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return int(v), true
	}
	count, ok := u32()
	if !ok {
		return nil
	}
	var names []string
	for i := 0; i < count; i++ {
		l, ok := u32()
		if !ok || off+l > len(data) {
			return nil
		}
		names = append(names, string(data[off:off+l]))
		off += l
	}
	return names
}
