package textindex

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestCheckCleanTree(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 3000; i++ {
		mustPut(t, tr, fmt.Sprintf("key-%05d", i), fmt.Sprintf("v%d", i))
	}
	rep, err := tr.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Keys != 3000 {
		t.Errorf("Keys = %d", rep.Keys)
	}
	if rep.Height < 2 || rep.LeafPages < 2 || rep.InnerPages < 1 {
		t.Errorf("implausible shape: %+v", rep)
	}
}

func TestCheckAfterRandomWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chk.kbpt")
	tr, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.cacheCap = 8
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 4000; i++ {
		k := []byte(fmt.Sprintf("k%04d", rng.Intn(1500)))
		var v []byte
		if rng.Intn(25) == 0 {
			v = bytes.Repeat([]byte{byte(rng.Intn(256))}, 3000+rng.Intn(6000))
		} else {
			v = []byte(fmt.Sprintf("v%d", rng.Int63()))
		}
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tr.Check()
	if err != nil {
		t.Fatalf("Check after workload: %v", err)
	}
	if rep.Keys != int(tr.numKeys) {
		t.Errorf("report keys %d, tree claims %d", rep.Keys, tr.numKeys)
	}
}

func TestCheckDetectsTamperedPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tamper.kbpt")
	tr, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Swap two keys inside a leaf by writing a doctored node image.
	var leaf *node
	for id := pageID(1); id < tr.pageCount; id++ {
		n, err := tr.getNode(id)
		if err != nil {
			continue
		}
		if n.typ == pageLeaf && len(n.keys) >= 2 {
			leaf = n
			break
		}
	}
	if leaf == nil {
		t.Fatal("no leaf found")
	}
	leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]
	leaf.dirty = true
	if err := tr.writeNode(leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Check(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Check on tampered tree = %v, want ErrCorrupt", err)
	}
	tr.f.Close()
}

func TestCheckCountsFreePages(t *testing.T) {
	tr := newTree(t)
	big := bytes.Repeat([]byte("x"), 20000)
	mustPut(t, tr, "big", string(big))
	mustPut(t, tr, "big", "small") // replacing the value frees its chain
	rep, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(big) + overflowCap - 1) / overflowCap; rep.FreePages != want {
		t.Errorf("Check free pages %d, want the %d freed overflow pages", rep.FreePages, want)
	}
}

func TestCheckClosedTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.kbpt")
	tr, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := tr.Check(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Check on closed tree = %v", err)
	}
}
