package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"kor/internal/geo"
)

// Binary graph format ("KORG"):
//
//	magic "KORG" | u32 version | u8 flags (1=positions, 2=names)
//	u32 numTerms | per term: u32 len + bytes
//	u32 numNodes | per node: u32 termCount + termCount × u32 term
//	u32 numEdges | per edge: u32 from, u32 to, f64 objective, f64 budget
//	[positions] numNodes × (f64 x, f64 y)
//	[names]     per node: u32 len + bytes
//	u32 crc32 (IEEE, over everything after the magic)
//
// The format is self-contained: the vocabulary travels with the graph, so a
// saved dataset reloads with identical Term numbering.

const (
	formatMagic   = "KORG"
	formatVersion = 1

	flagPositions = 1
	flagNames     = 2
)

// ErrBadFormat reports a malformed or corrupted graph file.
var ErrBadFormat = errors.New("graph: bad file format")

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Save writes g to w in the binary graph format.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(formatMagic); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	wr := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	writeString := func(s string) error {
		if err := wr(uint32(len(s))); err != nil {
			return err
		}
		_, err := cw.Write([]byte(s))
		return err
	}

	var flags uint8
	if g.pos != nil {
		flags |= flagPositions
	}
	if g.names != nil {
		flags |= flagNames
	}
	if err := wr(uint32(formatVersion)); err != nil {
		return err
	}
	if err := wr(flags); err != nil {
		return err
	}

	names := g.vocab.Names()
	if err := wr(uint32(len(names))); err != nil {
		return err
	}
	for _, s := range names {
		if err := writeString(s); err != nil {
			return err
		}
	}

	n := g.NumNodes()
	if err := wr(uint32(n)); err != nil {
		return err
	}
	for v := NodeID(0); int(v) < n; v++ {
		ts := g.Terms(v)
		if err := wr(uint32(len(ts))); err != nil {
			return err
		}
		for _, t := range ts {
			if err := wr(uint32(t)); err != nil {
				return err
			}
		}
	}

	if err := wr(uint32(g.NumEdges())); err != nil {
		return err
	}
	for v := NodeID(0); int(v) < n; v++ {
		for _, e := range g.Out(v) {
			if err := wr(uint32(v)); err != nil {
				return err
			}
			if err := wr(uint32(e.To)); err != nil {
				return err
			}
			if err := wr(e.Objective); err != nil {
				return err
			}
			if err := wr(e.Budget); err != nil {
				return err
			}
		}
	}

	if g.pos != nil {
		for _, p := range g.pos {
			if err := wr(p.X); err != nil {
				return err
			}
			if err := wr(p.Y); err != nil {
				return err
			}
		}
	}
	if g.names != nil {
		for _, s := range g.names {
			if err := writeString(s); err != nil {
				return err
			}
		}
	}

	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// loadTrustPrealloc bounds how far Load trusts a file's claimed edge count
// when sizing its edge block up front. Claims at or below it (8M edges) are
// allocated exactly — the real-world-scale path, where exact sizing keeps
// the transient at one record per edge. Larger claims grow as bytes
// arrive instead, so a corrupt or adversarial header cannot force a
// multi-gigabyte allocation before the truncated payload is noticed.
const loadTrustPrealloc = 1 << 23

// edgeRecordSize is the size of one KORG edge record: u32 from, u32 to,
// f64 objective, f64 budget.
const edgeRecordSize = 24

// Load reads a graph in the binary graph format.
//
// Load lays the graph out through the same count-and-fill as every other
// path (see StreamBuilder): each node's terms go to AddNodeTerms as they
// arrive, already interned, and the edge section is read as one block of
// edge records that is counted and filled into both CSR directions in
// arrival order, whatever order the writer chose. Peak memory is the
// finished graph plus that block, 24 B per edge. Header counts are claims,
// not truths: see loadTrustPrealloc.
func Load(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(formatMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if string(magic) != formatMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	cr := &crcReader{r: br}
	rd := func(v any) error { return binary.Read(cr, binary.LittleEndian, v) }
	readString := func() (string, error) {
		var n uint32
		if err := rd(&n); err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("%w: unreasonable string length %d", ErrBadFormat, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	var version uint32
	if err := rd(&version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	var flags uint8
	if err := rd(&flags); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}

	var numTerms uint32
	if err := rd(&numTerms); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	vocab := NewVocabulary()
	for i := uint32(0); i < numTerms; i++ {
		s, err := readString()
		if err != nil {
			return nil, fmt.Errorf("%w: vocab: %v", ErrBadFormat, err)
		}
		if t := vocab.Intern(s); t != Term(i) {
			return nil, fmt.Errorf("%w: vocab entry %d repeats entry %d (%q)", ErrBadFormat, i, t, s)
		}
	}

	var numNodes uint32
	if err := rd(&numNodes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if numNodes > 1<<28 {
		return nil, fmt.Errorf("%w: unreasonable node count %d", ErrBadFormat, numNodes)
	}
	n := int(numNodes)
	sb := NewStreamBuilder(vocab)
	var ts []Term
	for i := 0; i < n; i++ {
		var tc uint32
		if err := rd(&tc); err != nil {
			return nil, fmt.Errorf("%w: node %d: %v", ErrBadFormat, i, err)
		}
		if tc > numTerms {
			return nil, fmt.Errorf("%w: node %d has %d terms, vocabulary has %d", ErrBadFormat, i, tc, numTerms)
		}
		ts = ts[:0]
		for j := uint32(0); j < tc; j++ {
			var t uint32
			if err := rd(&t); err != nil {
				return nil, fmt.Errorf("%w: node %d: %v", ErrBadFormat, i, err)
			}
			ts = append(ts, Term(t))
		}
		if _, err := sb.AddNodeTerms(ts); err != nil {
			return nil, fmt.Errorf("%w: node %d: %v", ErrBadFormat, i, err)
		}
	}

	var numEdges uint32
	if err := rd(&numEdges); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if numEdges > 1<<28 {
		return nil, fmt.Errorf("%w: unreasonable edge count %d", ErrBadFormat, numEdges)
	}
	e := int(numEdges)
	var block bytes.Buffer
	// ReadFrom keeps MinRead bytes of headroom, so a trusted claim's block
	// is allocated once, at its exact size.
	block.Grow(preallocHint(e)*edgeRecordSize + bytes.MinRead)
	if got, err := block.ReadFrom(io.LimitReader(cr, int64(e)*edgeRecordSize)); err != nil || got < int64(e)*edgeRecordSize {
		return nil, fmt.Errorf("%w: edge section has %d of %d bytes: %v", ErrBadFormat, got, e*edgeRecordSize, err)
	}
	recs := block.Bytes()
	edges := func(yield func(int, builderEdge) bool) {
		le := binary.LittleEndian
		for i := 0; i < e; i++ {
			rec := recs[i*edgeRecordSize:]
			if !yield(i, builderEdge{
				from:      NodeID(le.Uint32(rec)),
				to:        NodeID(le.Uint32(rec[4:])),
				objective: math.Float64frombits(le.Uint64(rec[8:])),
				budget:    math.Float64frombits(le.Uint64(rec[16:])),
			}) {
				return
			}
		}
	}
	if err := sb.assemble(edges); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}

	if flags&flagPositions != 0 {
		sb.pos = make([]geo.Point, n)
		for i := 0; i < n; i++ {
			var x, y float64
			if err := rd(&x); err != nil {
				return nil, fmt.Errorf("%w: position %d: %v", ErrBadFormat, i, err)
			}
			if err := rd(&y); err != nil {
				return nil, fmt.Errorf("%w: position %d: %v", ErrBadFormat, i, err)
			}
			sb.pos[i] = geo.Point{X: x, Y: y}
		}
	}
	if flags&flagNames != 0 {
		sb.names = make([]string, n)
		for i := 0; i < n; i++ {
			s, err := readString()
			if err != nil {
				return nil, fmt.Errorf("%w: name %d: %v", ErrBadFormat, i, err)
			}
			sb.names[i] = s
		}
	}

	wantCRC := cr.crc
	var gotCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &gotCRC); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadFormat, err)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrBadFormat, gotCRC, wantCRC)
	}
	return sb.Build()
}

// preallocHint caps an up-front allocation size at loadTrustPrealloc; see
// that constant for why claimed counts are not trusted unboundedly.
func preallocHint(claimed int) int {
	if claimed > loadTrustPrealloc {
		return loadTrustPrealloc
	}
	return claimed
}
