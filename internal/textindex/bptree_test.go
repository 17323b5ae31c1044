package textindex

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.kbpt")
	tr, err := Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func mustPut(t *testing.T, tr *Tree, k, v string) {
	t.Helper()
	if err := tr.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func mustGet(t *testing.T, tr *Tree, k string) string {
	t.Helper()
	v, ok, err := tr.Get([]byte(k))
	if err != nil {
		t.Fatalf("Get(%q): %v", k, err)
	}
	if !ok {
		t.Fatalf("Get(%q): missing", k)
	}
	return string(v)
}

func TestPutGetSmall(t *testing.T) {
	tr := newTree(t)
	mustPut(t, tr, "restaurant", "1,5,9")
	mustPut(t, tr, "pub", "2")
	mustPut(t, tr, "jazz", "7,8")
	if got := mustGet(t, tr, "pub"); got != "2" {
		t.Errorf("pub = %q", got)
	}
	if got := mustGet(t, tr, "restaurant"); got != "1,5,9" {
		t.Errorf("restaurant = %q", got)
	}
	if _, ok, _ := tr.Get([]byte("museum")); ok {
		t.Error("Get(missing) returned ok")
	}
	if int(tr.numKeys) != 3 {
		t.Errorf("Len = %d", int(tr.numKeys))
	}
}

func TestPutReplaces(t *testing.T) {
	tr := newTree(t)
	mustPut(t, tr, "k", "old")
	mustPut(t, tr, "k", "new")
	if got := mustGet(t, tr, "k"); got != "new" {
		t.Errorf("value = %q, want new", got)
	}
	if int(tr.numKeys) != 1 {
		t.Errorf("Len = %d after replace", int(tr.numKeys))
	}
}

func TestPutValidation(t *testing.T) {
	tr := newTree(t)
	if err := tr.Put(nil, []byte("x")); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty key: %v", err)
	}
	long := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	if err := tr.Put(long, []byte("x")); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("long key: %v", err)
	}
	if err := tr.Put(bytes.Repeat([]byte("k"), MaxKeyLen), []byte("x")); err != nil {
		t.Errorf("max-length key rejected: %v", err)
	}
}

func TestManyKeysForceSplits(t *testing.T) {
	tr := newTree(t)
	const n = 5000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i)
		mustPut(t, tr, k, fmt.Sprintf("value-%d", i*i))
	}
	if int(tr.numKeys) != n {
		t.Fatalf("Len = %d, want %d", int(tr.numKeys), n)
	}
	s, err := tr.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if s.Height < 2 {
		t.Errorf("height = %d; %d keys should have split the root", s.Height, n)
	}
	for _, i := range []int{0, 1, n / 3, n - 2, n - 1} {
		k := fmt.Sprintf("key-%06d", i)
		if got := mustGet(t, tr, k); got != fmt.Sprintf("value-%d", i*i) {
			t.Fatalf("%s = %q", k, got)
		}
	}
}

func TestOverflowValues(t *testing.T) {
	tr := newTree(t)
	big := bytes.Repeat([]byte("abcdefgh"), 3000) // 24000 bytes, ~6 overflow pages
	mustPut(t, tr, "big", string(big))
	small := "tiny"
	mustPut(t, tr, "small", small)
	if got := mustGet(t, tr, "big"); got != string(big) {
		t.Fatalf("big value corrupted: %d bytes, want %d", len(got), len(big))
	}
	if got := mustGet(t, tr, "small"); got != small {
		t.Fatalf("small = %q", got)
	}
	// Replace the big value: the old chain must be recycled.
	preStats, _ := tr.Check()
	mustPut(t, tr, "big", "now small")
	postStats, _ := tr.Check()
	if postStats.FreePages <= preStats.FreePages {
		t.Errorf("overflow chain not freed: free %d → %d", preStats.FreePages, postStats.FreePages)
	}
	if got := mustGet(t, tr, "big"); got != "now small" {
		t.Fatalf("big after replace = %q", got)
	}
	// New overflow values should reuse freed pages rather than growing.
	grown := tr.pageCount
	mustPut(t, tr, "big2", string(big))
	if tr.pageCount > grown+7 {
		t.Errorf("free pages not reused: %d → %d pages", grown, tr.pageCount)
	}
}

// Model-based random test: the tree must agree with a map through thousands
// of random put/get operations and survive cache pressure (tiny cache) and a
// mid-run flush.
func TestRandomOpsAgainstModel(t *testing.T) {
	tr := newTree(t)
	tr.cacheCap = 8 // force heavy eviction
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(2012))
	randKey := func() string { return fmt.Sprintf("key-%04d", rng.Intn(2000)) }
	randVal := func() string {
		if rng.Intn(20) == 0 { // occasionally huge → overflow path
			return string(bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 2000+rng.Intn(9000)))
		}
		return fmt.Sprintf("val-%d", rng.Int63())
	}

	const steps = 6000
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // get
			k := randKey()
			v, ok, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatalf("step %d Get: %v", i, err)
			}
			want, inModel := model[k]
			if ok != inModel || (ok && string(v) != want) {
				t.Fatalf("step %d Get(%s) mismatch", i, k)
			}
		default: // put
			k, v := randKey(), randVal()
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d Put: %v", i, err)
			}
			model[k] = v
		}
		if i == steps/2 { // mid-run flush: written-back pages must read back
			if err := tr.Flush(); err != nil {
				t.Fatalf("mid Flush: %v", err)
			}
		}
	}
	if int(tr.numKeys) != len(model) {
		t.Fatalf("Len = %d, model %d", int(tr.numKeys), len(model))
	}
	// Full verification: every model key reads back, and the tree is sound.
	for k, want := range model {
		if got := mustGet(t, tr, k); got != want {
			t.Fatalf("value mismatch for %q", k)
		}
	}
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedTreeRejectsOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.kbpt")
	tr, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close: %v", err)
	}
	if _, _, err := tr.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}
