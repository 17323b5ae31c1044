package apsp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// writeTestIndex builds a partitioned oracle over g and round-trips it
// through a temp file, returning both ends.
func writeTestIndex(t *testing.T, g *graph.Graph, cellSize int) (*PartitionedOracle, *PartitionedOracle, string) {
	t.Helper()
	mem := NewPartitionedOracle(g, cellSize)
	path := filepath.Join(t.TempDir(), "dist.kori")
	if err := mem.WriteIndexFile(path); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	disk, err := OpenIndex(path, g)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk, path
}

// openDecoded opens the index the way a host without mmap, or a big-endian
// one, does: read the whole file and decode every array into fresh slices.
func openDecoded(t *testing.T, path string, g *graph.Graph) *PartitionedOracle {
	t.Helper()
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	o, err := OpenIndex(path, g)
	if err != nil {
		t.Fatalf("OpenIndex (decode fallback): %v", err)
	}
	if o.IndexInfo().Mapped {
		t.Fatal("the decode fallback returned a mapped oracle")
	}
	return o
}

// TestIndexRoundTrip is the durability row of the conformance table: every
// partitioned form writes back the file it was written to or opened from,
// byte for byte — every table, the counts block and the header — and each
// opened form, mapped where the host maps and decoded, describes its file in
// IndexInfo, has the shape of the memory build it was written from, and
// answers every pair as that build does, bit for bit, and walks its paths
// into eight nodes.
func TestIndexRoundTrip(t *testing.T) {
	conform(t, "partitioned", nil, func(t *testing.T, c *confCase) {
		file, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		var rewritten bytes.Buffer
		if err := c.part.WriteIndex(&rewritten); err != nil || !bytes.Equal(rewritten.Bytes(), file) {
			t.Fatalf("re-writing the index (error %v) does not give back its file", err)
		}
		if c.part == c.mem {
			return
		}
		info := c.part.IndexInfo()
		if info.Fingerprint != c.g.Fingerprint() || info.Bytes != int64(len(file)) || info.Regions != c.mem.NumRegions() || info.Borders != c.mem.NumBorders() {
			t.Fatalf("IndexInfo = %+v; the memory build has %d regions and %d borders", info, c.mem.NumRegions(), c.mem.NumBorders())
		}
		if strings.HasSuffix(c.label, "mapped") && runtime.GOOS == "linux" && !info.Mapped {
			t.Fatal("OpenIndex did not alias the file on a host that maps")
		}
		sameAnswers(t, c.g, c.o, c.mem, 8)
	})
}

// TestIndexLoadErrors exercises every typed load-failure path: damaged
// files fail with ErrIndexFormat, incompatible versions with
// ErrIndexVersion, and a mismatched graph with ErrIndexFingerprint — never
// a panic, never a silently wrong oracle.
func TestIndexLoadErrors(t *testing.T) {
	g := buildPaperGraph()
	mem := NewPartitionedOracle(g, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.kori")
	if err := mem.WriteIndexFile(path); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, want error) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := OpenIndex(p, g)
		if o != nil {
			o.Close()
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: OpenIndex error = %v, want %v", name, err, want)
		}
	}

	// Not an index at all.
	check("garbage.kori", []byte("definitely not an index file"), ErrIndexFormat)

	// Truncated: below the header, and mid-payload.
	check("short-header.kori", good[:20], ErrIndexFormat)
	check("truncated.kori", good[:len(good)-25], ErrIndexFormat)

	// A flipped payload byte must fail the payload CRC.
	corrupt := append([]byte(nil), good...)
	corrupt[indexHeaderSize+len(corrupt)/2] ^= 0x40
	check("corrupt.kori", corrupt, ErrIndexFormat)

	// A flipped header byte must fail the header CRC.
	badHdr := append([]byte(nil), good...)
	badHdr[10] ^= 0x01
	check("bad-header.kori", badHdr, ErrIndexFormat)

	// Another version — the two previous formats', a future one — header CRC
	// recomputed so only the version differs. A version 2 file has no
	// cell-pair minima; the payload length would refuse it too, but the
	// version is checked first and names the remedy.
	for name, version := range map[string]uint32{"v1.kori": 1, "v2.kori": 2, "future.kori": 0x7f} {
		check(name, withHeader(t, good, func(h *indexHeader) { h.Version = version }), ErrIndexVersion)
	}

	// A nonzero reserved field, header CRC recomputed: the writer never
	// sets it, so a file that does is not one it wrote.
	check("reserved.kori", withHeader(t, good, func(h *indexHeader) { h.Reserved = 1 }), ErrIndexFormat)

	// A well-formed file whose numbering lies — checksums recomputed, so only
	// the structure check can object. The lookups index the overlay by
	// "region c's x-th node is overlay index start(c)+x" without looking, so
	// two border nodes trading overlay indices would silently serve each
	// other's scores: first in borderIdx alone, then consistently in
	// borderIdx and borders (still a bijection, no longer the numbering).
	n, ncells := len(mem.region), len(mem.cells)
	borderIdxAt := func(v graph.NodeID) int { return indexHeaderSize + 8*ncells + 4*(2*n+int(v)) }
	bordersAt := func(b int) int { return indexHeaderSize + 8*ncells + 4*(3*n+b) }
	if len(mem.borders) < 2 {
		t.Fatalf("the paper graph at cell size 3 has %d borders", len(mem.borders))
	}
	swap4 := func(b []byte, i, j int) {
		for k := 0; k < 4; k++ {
			b[i+k], b[j+k] = b[j+k], b[i+k]
		}
	}
	swapped := append([]byte(nil), good...)
	swap4(swapped, borderIdxAt(mem.borders[0]), borderIdxAt(mem.borders[1]))
	patchPayloadCRC(swapped)
	check("swapped-border-index.kori", swapped, ErrIndexFormat)
	swap4(swapped, bordersAt(0), bordersAt(1))
	patchPayloadCRC(swapped)
	check("renumbered-borders.kori", swapped, ErrIndexFormat)

	// Nonzero alignment padding before the float64 section, payload CRC
	// recomputed: the writer never produces it. The int32 section ends
	// 8-aligned at cell size 3, so the padded file is cut at another size.
	for cellSize := 2; ; cellSize++ {
		if cellSize > 8 {
			t.Fatal("no cell size up to 8 pads the paper graph's index")
		}
		o := NewPartitionedOracle(g, cellSize)
		sumK2 := 0
		for i := range o.cells {
			sumK2 += len(o.cells[i].nodes) * len(o.cells[i].nodes)
		}
		n, b := len(o.region), len(o.borders)
		intEnd := indexHeaderSize + 8*len(o.cells) + 4*(4*n+b+2*b*b+2*sumK2)
		if intEnd%8 == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := o.WriteIndex(&buf); err != nil {
			t.Fatal(err)
		}
		padded := buf.Bytes()
		padded[intEnd] = 1
		patchPayloadCRC(padded)
		check("padding.kori", padded, ErrIndexFormat)
		break
	}

	// The right file for the wrong graph.
	other := NewPartitionedOracle(tiedGraph(rand.New(rand.NewSource(9)), 8), 3)
	otherPath := filepath.Join(dir, "other.kori")
	if err := other.WriteIndexFile(otherPath); err != nil {
		t.Fatal(err)
	}
	if o, err := OpenIndex(otherPath, g); !errors.Is(err, ErrIndexFingerprint) {
		if o != nil {
			o.Close()
		}
		t.Errorf("wrong-graph OpenIndex error = %v, want ErrIndexFingerprint", err)
	}

	// The pristine file still opens after all that.
	o, err := OpenIndex(path, g)
	if err != nil {
		t.Fatalf("reopening pristine index: %v", err)
	}
	o.Close()
}

// patchPayloadCRC recomputes the payload checksum after a deliberate edit.
func patchPayloadCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[indexHeaderSize:len(b)-4]))
}

// withHeader returns a copy of the index file b with its header edited by
// edit and the header checksum recomputed.
func withHeader(t *testing.T, b []byte, edit func(*indexHeader)) []byte {
	t.Helper()
	var h indexHeader
	if _, err := binary.Decode(b, binary.LittleEndian, &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	h.CRC = h.checksum()
	out := append([]byte(nil), b...)
	if _, err := binary.Encode(out, binary.LittleEndian, &h); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIndexBytesPinned pins the bytes of one small index: the paper graph at
// cell size 3. A writer and a reader that changed in step would pass every
// round trip; this digest changes only together with indexVersion.
func TestIndexBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := NewPartitionedOracle(buildPaperGraph(), 3).WriteIndex(&buf); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	const want = "4ed2934cd0d6f917dcdcd1b79b5b3f9cf4481d0e91b336c0c1ac33d17d0e6ced"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 4116 || got != want {
		t.Fatalf("paper graph index: %d bytes, sha256 %s; want 4116 bytes, %s", buf.Len(), got, want)
	}
}

// TestIndexServesStoredPartition: a KORI file serves the partition stored in
// it, not the one PartitionGraph would cut today. An index over a
// breadth-first grown partition of a graph with positions — what builds
// before coordinate bisection wrote — opens, keeps its regions, and answers
// like the oracle it was written from, with the matrix oracle's primaries.
func TestIndexServesStoredPartition(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 3, Nodes: 200})
	grown := newPartitionedOracle(g, numberCells(g, 24, growCells(g, 24)))
	if slices.Equal(grown.region, PartitionGraph(g, 24).Region) {
		t.Fatal("growing and bisection cut the same regions; the test proves nothing")
	}
	path := filepath.Join(t.TempDir(), "grown.kori")
	if err := grown.WriteIndexFile(path); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	disk, err := OpenIndex(path, g)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	defer disk.Close()
	if !slices.Equal(disk.region, grown.region) || !slices.Equal(disk.borders, grown.borders) {
		t.Fatal("the opened index does not carry the stored partition")
	}
	matrix := NewMatrixOracle(g)
	for from := graph.NodeID(0); int(from) < g.NumNodes(); from++ {
		for to := graph.NodeID(0); int(to) < g.NumNodes(); to += 7 {
			dOS, dBS, dOK := disk.MinObjective(from, to)
			gOS, gBS, gOK := grown.MinObjective(from, to)
			mOS, _, mOK := matrix.MinObjective(from, to)
			if dOS != gOS || dBS != gBS || dOK != gOK || dOK != mOK || (dOK && !feq(dOS, mOS)) {
				t.Fatalf("τ(%d,%d): disk (%v,%v,%v), written (%v,%v,%v), matrix primary (%v,%v)",
					from, to, dOS, dBS, dOK, gOS, gBS, gOK, mOS, mOK)
			}
		}
	}
}
