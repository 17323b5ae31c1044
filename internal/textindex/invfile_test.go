package textindex

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"kor/internal/graph"
)

func newInverted(t *testing.T) *InvertedFile {
	t.Helper()
	f, err := CreateInverted(filepath.Join(t.TempDir(), "inv.kbpt"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestPostingsRoundTrip(t *testing.T) {
	f := newInverted(t)
	if err := f.PutPostings("museum", []uint32{9, 3, 3, 120, 7}); err != nil {
		t.Fatal(err)
	}
	got, err := f.Postings("museum")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{3, 7, 9, 120}
	if len(got) != len(want) {
		t.Fatalf("Postings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Postings = %v, want %v", got, want)
		}
	}
}

func TestMissingTerm(t *testing.T) {
	f := newInverted(t)
	got, err := f.Postings("nothing")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Postings(missing) = %v", got)
	}
}

func TestHugePostingListUsesOverflow(t *testing.T) {
	f := newInverted(t)
	docs := make([]uint32, 50000)
	for i := range docs {
		docs[i] = uint32(i * 3)
	}
	if err := f.PutPostings("everywhere", docs); err != nil {
		t.Fatal(err)
	}
	got, err := f.Postings("everywhere")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(docs) {
		t.Fatalf("len = %d, want %d", len(got), len(docs))
	}
	for i := range docs {
		if got[i] != docs[i] {
			t.Fatalf("posting %d = %d, want %d", i, got[i], docs[i])
		}
	}
}

// Property: encode/decode is the identity on sorted unique doc lists.
func TestPostingCodecProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		docs := raw[:0]
		for i, d := range raw {
			if i == 0 || d != docs[len(docs)-1] {
				docs = append(docs, d)
			}
		}
		decoded, err := decodePostings(encodePostings(docs))
		if err != nil {
			return false
		}
		if len(decoded) != len(docs) {
			return false
		}
		for i := range docs {
			if decoded[i] != docs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	raw := encodePostings([]uint32{1, 100, 100000})
	for cut := 1; cut < len(raw); cut++ {
		if _, err := decodePostings(raw[:cut]); err == nil {
			t.Errorf("decodePostings accepted truncation at %d", cut)
		}
	}
	if _, err := decodePostings(nil); err == nil {
		t.Error("decodePostings accepted empty input")
	}
	// A count of about 1.3e12 over five bytes: rejected before it sizes an
	// allocation of terabytes.
	if _, err := decodePostings([]byte("\xfd\xfd\xfd\xfd\xfd'")); err == nil {
		t.Error("decodePostings accepted a count larger than its input")
	}
}

func TestGraphIndexAdapter(t *testing.T) {
	b := graph.NewBuilder()
	v0 := b.AddNode("pub", "jazz")
	v1 := b.AddNode("pub")
	v2 := b.AddNode("museum")
	if err := b.AddEdge(v0, v1, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()

	gi, err := BuildForGraph(filepath.Join(t.TempDir(), "g.kbpt"), g)
	if err != nil {
		t.Fatal(err)
	}
	defer gi.Close()

	pub, _ := g.Vocab().Lookup("pub")
	post := gi.Postings(pub)
	if len(post) != 2 || post[0] != v0 || post[1] != v1 {
		t.Fatalf("Postings(pub) = %v", post)
	}
	museum, _ := g.Vocab().Lookup("museum")
	if got := gi.Postings(museum); len(got) != 1 || got[0] != v2 {
		t.Fatalf("Postings(museum) = %v", got)
	}
	if got := gi.Postings(graph.Term(999)); len(got) != 0 {
		t.Fatalf("Postings(unknown) = %v", got)
	}

	// The adapter must agree with the in-memory index on every term.
	mem := graph.NewMemIndex(g)
	for _, name := range g.Vocab().Names() {
		term, _ := g.Vocab().Lookup(name)
		a, b := gi.Postings(term), mem.Postings(term)
		if len(a) != len(b) {
			t.Fatalf("term %q: disk %v vs mem %v", name, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("term %q: disk %v vs mem %v", name, a, b)
			}
		}
	}
}

func TestGraphIndexMemoization(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("x")
	g := b.MustBuild()
	gi, err := BuildForGraph(filepath.Join(t.TempDir(), "memo.kbpt"), g)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := g.Vocab().Lookup("x")
	first := gi.Postings(x)
	// Close the file: memoized postings must still serve.
	gi.file.Close()
	second := gi.Postings(x)
	if len(first) != 1 || len(second) != 1 || first[0] != second[0] {
		t.Fatalf("memoization broken: %v then %v", first, second)
	}
}

func TestRandomInvertedAgainstModel(t *testing.T) {
	f := newInverted(t)
	rng := rand.New(rand.NewSource(5))
	model := make(map[string][]uint32)
	terms := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff"}
	for step := 0; step < 400; step++ {
		term := terms[rng.Intn(len(terms))]
		n := rng.Intn(50)
		docs := make([]uint32, n)
		for i := range docs {
			docs[i] = uint32(rng.Intn(1000))
		}
		if err := f.PutPostings(term, docs); err != nil {
			t.Fatal(err)
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		uniq := docs[:0]
		for i, d := range docs {
			if i == 0 || d != uniq[len(uniq)-1] {
				uniq = append(uniq, d)
			}
		}
		model[term] = append([]uint32(nil), uniq...)

		check := terms[rng.Intn(len(terms))]
		got, err := f.Postings(check)
		if err != nil {
			t.Fatal(err)
		}
		want := model[check]
		if len(got) != len(want) {
			t.Fatalf("step %d: %q = %v, want %v", step, check, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: %q = %v, want %v", step, check, got, want)
			}
		}
	}
}
