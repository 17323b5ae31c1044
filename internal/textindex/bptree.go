// Package textindex implements the paper's disk-resident inverted file: a
// vocabulary of keywords with, per keyword, a posting list of the nodes whose
// descriptions contain it (§3.1), stored in a paged, on-disk B+-tree as the
// paper stores it. The engine does not serve from it — every query reads
// postings from graph.MemIndex, the same delta-varint lists held in memory —
// so the package is kept only as the benchmark's posting-lookup probe: build
// the file for a graph, read postings back, close it.
//
// The B+-tree maps byte-string keys to byte values in fixed 4 KiB pages,
// with a write-back page cache and values larger than a quarter page spilled
// to overflow chains. The inverted file in invfile.go is a thin client that
// encodes posting lists as delta-compressed varints.
package textindex

import (
	"bytes"
	"errors"
	"os"
	"sort"
)

// PageSize is the fixed on-disk page size.
const PageSize = 4096

const (
	// MaxKeyLen bounds key length so that a post-split node always fits a
	// page.
	MaxKeyLen = 512
	// maxInlineValue is the largest value stored inside a leaf cell; longer
	// values go to overflow chains.
	maxInlineValue = PageSize / 4

	pageHeaderLen  = 16
	treeMagic      = "KBPT"
	treeVersion    = 1
	headerPage     = 0
	invalidPage    = 0 // page 0 is the header, so 0 doubles as "none"
	defaultCacheSz = 256
)

// Page types.
const (
	pageLeaf     = 1
	pageInternal = 2
	pageOverflow = 3
	pageFree     = 4
)

// Errors reported by the tree.
var (
	ErrKeyTooLong = errors.New("textindex: key exceeds MaxKeyLen")
	ErrEmptyKey   = errors.New("textindex: empty key")
	ErrCorrupt    = errors.New("textindex: corrupt index file")
	ErrClosed     = errors.New("textindex: tree is closed")
)

type pageID = uint32

// Tree is a disk-resident B+-tree. It is not safe for concurrent use; the
// graph adapter wraps it with the synchronization it needs.
type Tree struct {
	f         *os.File
	root      pageID
	pageCount uint32
	freeHead  pageID
	numKeys   uint64
	cache     map[pageID]*node
	cacheCap  int
	clock     uint64
	closed    bool
}

// node is the in-memory image of a leaf or internal page.
type node struct {
	id       pageID
	typ      byte
	dirty    bool
	lastUsed uint64

	keys [][]byte

	// Leaf fields. vals[i] is the inline value; when overflow[i] != 0 the
	// value lives in an overflow chain of total length vlen[i] and vals[i]
	// is nil.
	vals     [][]byte
	overflow []pageID
	vlen     []uint32
	next     pageID // right sibling

	// Internal field: len(children) == len(keys)+1.
	children []pageID
}

// Create creates a new empty tree file at path, failing if the file exists.
func Create(path string) (*Tree, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	t := &Tree{f: f, pageCount: 1, cache: make(map[pageID]*node), cacheCap: defaultCacheSz}
	rootLeaf := t.newNode(pageLeaf)
	t.root = rootLeaf.id
	if err := t.Flush(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return t, nil
}

// Put inserts or replaces the value for key.
func (t *Tree) Put(key, value []byte) error {
	if t.closed {
		return ErrClosed
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKeyLen {
		return ErrKeyTooLong
	}
	sep, right, grew, err := t.insert(t.root, key, value)
	if err != nil {
		return err
	}
	if grew {
		newRoot := t.newNode(pageInternal)
		newRoot.keys = [][]byte{sep}
		newRoot.children = []pageID{t.root, right}
		t.root = newRoot.id
	}
	return t.maybeEvict()
}

// Get returns the value stored for key. The boolean reports presence; the
// returned slice is a copy the caller owns.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	if t.closed {
		return nil, false, ErrClosed
	}
	n, err := t.getNode(t.root)
	if err != nil {
		return nil, false, err
	}
	for n.typ == pageInternal {
		n, err = t.getNode(n.children[childIndex(n.keys, key)])
		if err != nil {
			return nil, false, err
		}
	}
	i, found := findKey(n.keys, key)
	if !found {
		return nil, false, nil
	}
	v, err := t.leafValue(n, i)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// insert descends to the leaf for key, inserting and splitting on the way
// back up. When the child split, it returns the separator key and the new
// right sibling's page.
func (t *Tree) insert(id pageID, key, value []byte) (sep []byte, right pageID, grew bool, err error) {
	n, err := t.getNode(id)
	if err != nil {
		return nil, 0, false, err
	}
	if n.typ == pageInternal {
		ci := childIndex(n.keys, key)
		sep, right, grew, err = t.insert(n.children[ci], key, value)
		if err != nil || !grew {
			return nil, 0, false, err
		}
		// Re-fetch: the recursive call may have evicted our pointer's state.
		n, err = t.getNode(id)
		if err != nil {
			return nil, 0, false, err
		}
		n.keys = insertBytesAt(n.keys, ci, sep)
		n.children = insertPageAt(n.children, ci+1, right)
		n.dirty = true
		if internalSize(n) <= PageSize {
			return nil, 0, false, nil
		}
		return t.splitInternal(n)
	}

	// Leaf.
	i, found := findKey(n.keys, key)
	if found {
		if n.overflow[i] != invalidPage {
			if err := t.freeChain(n.overflow[i]); err != nil {
				return nil, 0, false, err
			}
			n.overflow[i] = invalidPage
		}
		if err := t.setLeafValue(n, i, value); err != nil {
			return nil, 0, false, err
		}
		n.dirty = true
		return nil, 0, false, nil
	}
	n.keys = insertBytesAt(n.keys, i, append([]byte(nil), key...))
	n.vals = insertBytesAt(n.vals, i, nil)
	n.overflow = insertPageAt(n.overflow, i, invalidPage)
	n.vlen = insertU32At(n.vlen, i, 0)
	if err := t.setLeafValue(n, i, value); err != nil {
		return nil, 0, false, err
	}
	n.dirty = true
	t.numKeys++
	if leafSize(n) <= PageSize {
		return nil, 0, false, nil
	}
	return t.splitLeaf(n)
}

// setLeafValue stores value inline or in an overflow chain at slot i.
func (t *Tree) setLeafValue(n *node, i int, value []byte) error {
	if len(value) <= maxInlineValue {
		n.vals[i] = append([]byte(nil), value...)
		n.overflow[i] = invalidPage
		n.vlen[i] = uint32(len(value))
		return nil
	}
	head, err := t.writeChain(value)
	if err != nil {
		return err
	}
	n.vals[i] = nil
	n.overflow[i] = head
	n.vlen[i] = uint32(len(value))
	return nil
}

// leafValue materializes the value at slot i, following overflow chains.
func (t *Tree) leafValue(n *node, i int) ([]byte, error) {
	if n.overflow[i] == invalidPage {
		return append([]byte(nil), n.vals[i]...), nil
	}
	return t.readChain(n.overflow[i], n.vlen[i])
}

func (t *Tree) splitLeaf(n *node) (sep []byte, right pageID, grew bool, err error) {
	mid := splitPoint(len(n.keys))
	r := t.newNode(pageLeaf)
	r.keys = append(r.keys, n.keys[mid:]...)
	r.vals = append(r.vals, n.vals[mid:]...)
	r.overflow = append(r.overflow, n.overflow[mid:]...)
	r.vlen = append(r.vlen, n.vlen[mid:]...)
	r.next = n.next
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.overflow = n.overflow[:mid]
	n.vlen = n.vlen[:mid]
	n.next = r.id
	n.dirty = true
	// Copy-up: the separator is the first key of the right leaf.
	return append([]byte(nil), r.keys[0]...), r.id, true, nil
}

func (t *Tree) splitInternal(n *node) (sep []byte, right pageID, grew bool, err error) {
	mid := splitPoint(len(n.keys))
	r := t.newNode(pageInternal)
	// Move-up: keys[mid] is promoted, not copied.
	promoted := n.keys[mid]
	r.keys = append(r.keys, n.keys[mid+1:]...)
	r.children = append(r.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	n.dirty = true
	return promoted, r.id, true, nil
}

func splitPoint(n int) int {
	if n < 2 {
		return 1
	}
	return n / 2
}

// childIndex returns which child of an internal node covers key: the number
// of separators ≤ key.
func childIndex(keys [][]byte, key []byte) int {
	return sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], key) > 0 })
}

// findKey returns the insertion position of key in a sorted key list and
// whether it is already present.
func findKey(keys [][]byte, key []byte) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], key) >= 0 })
	return i, i < len(keys) && bytes.Equal(keys[i], key)
}

func insertBytesAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPageAt(s []pageID, i int, v pageID) []pageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertU32At(s []uint32, i int, v uint32) []uint32 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Flush writes every dirty page and the header to the file.
func (t *Tree) Flush() error {
	if t.closed {
		return ErrClosed
	}
	for _, n := range t.cache {
		if n.dirty {
			if err := t.writeNode(n); err != nil {
				return err
			}
		}
	}
	return t.writeHeader()
}

// Close flushes and closes the file. The tree is unusable afterwards.
func (t *Tree) Close() error {
	if t.closed {
		return nil
	}
	if err := t.Flush(); err != nil {
		t.f.Close()
		return err
	}
	t.closed = true
	return t.f.Close()
}
