package textindex

import (
	"bytes"
	"fmt"
)

// CheckReport summarizes a structural integrity scan of the tree.
type CheckReport struct {
	Keys       int
	LeafPages  int
	InnerPages int
	Height     int
	FreePages  int
}

// Check walks the whole tree and verifies its structural invariants:
// in-order keys, consistent separator bounds, uniform leaf depth, an intact
// leaf chain, readable overflow chains and an acyclic free list. It returns
// a report on success and ErrCorrupt (wrapped with the failing detail)
// otherwise. Tests run it after random workloads.
func (t *Tree) Check() (CheckReport, error) {
	if t.closed {
		return CheckReport{}, ErrClosed
	}
	var rep CheckReport
	leafDepth := -1
	var prevLeafLast []byte
	var expectedNext pageID // next leaf the chain should visit; 0 = unknown

	var walk func(id pageID, depth int, lo, hi []byte) error
	walk = func(id pageID, depth int, lo, hi []byte) error {
		n, err := t.getNode(id)
		if err != nil {
			return err
		}
		for i, k := range n.keys {
			if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
				return fmt.Errorf("%w: page %d keys out of order", ErrCorrupt, id)
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("%w: page %d key below separator bound", ErrCorrupt, id)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("%w: page %d key above separator bound", ErrCorrupt, id)
			}
		}
		switch n.typ {
		case pageLeaf:
			rep.LeafPages++
			rep.Keys += len(n.keys)
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("%w: leaf %d at depth %d, expected %d", ErrCorrupt, id, depth, leafDepth)
			}
			if expectedNext != 0 && expectedNext != id {
				return fmt.Errorf("%w: leaf chain skips to %d, expected %d", ErrCorrupt, id, expectedNext)
			}
			expectedNext = n.next
			if len(n.keys) > 0 {
				if prevLeafLast != nil && bytes.Compare(prevLeafLast, n.keys[0]) >= 0 {
					return fmt.Errorf("%w: leaf chain keys not ascending at page %d", ErrCorrupt, id)
				}
				prevLeafLast = append(prevLeafLast[:0], n.keys[len(n.keys)-1]...)
			}
			for i := range n.keys {
				if n.overflow[i] != invalidPage {
					if _, err := t.readChain(n.overflow[i], n.vlen[i]); err != nil {
						return fmt.Errorf("leaf %d slot %d: %w", id, i, err)
					}
				}
			}
			return nil
		case pageInternal:
			rep.InnerPages++
			if len(n.children) != len(n.keys)+1 {
				return fmt.Errorf("%w: page %d has %d children for %d keys", ErrCorrupt, id, len(n.children), len(n.keys))
			}
			for i, child := range n.children {
				var childLo, childHi []byte
				if i > 0 {
					childLo = n.keys[i-1]
				} else {
					childLo = lo
				}
				if i < len(n.keys) {
					childHi = n.keys[i]
				} else {
					childHi = hi
				}
				if err := walk(child, depth+1, childLo, childHi); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("%w: page %d has type %d inside the tree", ErrCorrupt, id, n.typ)
		}
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return rep, err
	}
	if expectedNext != 0 {
		return rep, fmt.Errorf("%w: leaf chain dangles at page %d", ErrCorrupt, expectedNext)
	}
	rep.Height = leafDepth
	if rep.Keys != int(t.numKeys) {
		return rep, fmt.Errorf("%w: tree claims %d keys, walk found %d", ErrCorrupt, t.numKeys, rep.Keys)
	}

	// Free list: bounded walk to detect cycles and out-of-range links.
	seen := make(map[pageID]bool)
	for id := t.freeHead; id != invalidPage; {
		if seen[id] {
			return rep, fmt.Errorf("%w: free list cycles at page %d", ErrCorrupt, id)
		}
		if id >= t.pageCount {
			return rep, fmt.Errorf("%w: free list leaves the file at page %d", ErrCorrupt, id)
		}
		seen[id] = true
		rep.FreePages++
		buf := make([]byte, pageHeaderLen)
		if _, err := t.f.ReadAt(buf, int64(id)*PageSize); err != nil {
			return rep, fmt.Errorf("%w: free page %d unreadable: %v", ErrCorrupt, id, err)
		}
		if buf[0] != pageFree {
			return rep, fmt.Errorf("%w: page %d on free list has type %d", ErrCorrupt, id, buf[0])
		}
		id = pageID(uint32(buf[4]) | uint32(buf[5])<<8 | uint32(buf[6])<<16 | uint32(buf[7])<<24)
	}
	return rep, nil
}
