package apsp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
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

// TestIndexRoundTrip is the durability property test: a disk-loaded index
// answers every pair query, slice lookup and path materialization exactly
// like the in-memory oracle it was written from, and agrees with the lazy
// oracle on the primary scores (the partitioned tie-break contract) on both
// metrics.
func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(30)
		g := randomTestGraph(rng, n, trial%2 == 0)
		mem, mapped, path := writeTestIndex(t, g, 4+rng.Intn(8))
		lazy := NewLazyOracle(g)
		if runtime.GOOS == "linux" && !mapped.IndexInfo().Mapped {
			t.Fatalf("trial %d: OpenIndex did not alias the file on a host that maps", trial)
		}

		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Both load paths — tables aliasing the mapping, tables decoded into
		// fresh slices — must serve what the in-memory build serves, and
		// write back the file they were read from, byte for byte: every
		// table, the counts block and the header.
		for name, disk := range map[string]*PartitionedOracle{"mapped": mapped, "decoded": openDecoded(t, path, g)} {
			info := disk.IndexInfo()
			if info.Fingerprint != g.Fingerprint() || info.Bytes != int64(len(file)) {
				t.Fatalf("trial %d %s: IndexInfo = %+v", trial, name, info)
			}
			var rewritten bytes.Buffer
			if err := disk.WriteIndex(&rewritten); err != nil {
				t.Fatalf("trial %d %s: WriteIndex: %v", trial, name, err)
			}
			if !bytes.Equal(rewritten.Bytes(), file) {
				t.Fatalf("trial %d %s: re-written index differs from the file it was opened from", trial, name)
			}
			if info.Regions != mem.NumRegions() || info.Borders != mem.NumBorders() {
				t.Fatalf("trial %d %s: disk shape %d/%d, memory %d/%d",
					trial, name, info.Regions, info.Borders, mem.NumRegions(), mem.NumBorders())
			}
			if !HasIndexedPaths(disk) {
				t.Fatalf("%s oracle does not report indexed paths", name)
			}

			for i := graph.NodeID(0); int(i) < n; i++ {
				tauSliceM := mem.TargetSlice(i, ByObjective)
				tauSliceD := disk.TargetSlice(i, ByObjective)
				sigSliceM := mem.TargetSlice(i, ByBudget)
				sigSliceD := disk.TargetSlice(i, ByBudget)
				for j := graph.NodeID(0); int(j) < n; j++ {
					// Disk answers must be bit-identical to the in-memory build.
					mOS, mBS, mOK := mem.MinObjective(j, i)
					dOS, dBS, dOK := disk.MinObjective(j, i)
					if mOS != dOS || mBS != dBS || mOK != dOK {
						t.Fatalf("trial %d: τ(%d,%d) %s (%v,%v,%v) != memory (%v,%v,%v)",
							trial, j, i, name, dOS, dBS, dOK, mOS, mBS, mOK)
					}
					// Slice lookups must reproduce the pair queries, both ends.
					sliceM, _ := primSec(tauSliceM, j)
					sliceD, _ := primSec(tauSliceD, j)
					if mOK {
						if sliceM != mOS || sliceD != mOS {
							t.Fatalf("trial %d %s: τ slice primary (%v,%v) != query %v", trial, name, sliceM, sliceD, mOS)
						}
					} else if !math.IsInf(sliceD, 1) {
						t.Fatalf("trial %d %s: τ slice reaches unreachable pair (%d,%d)", trial, name, j, i)
					}
					// Lazy agreement: exact primary, secondary no worse.
					lOS, lBS, lOK := lazy.MinObjective(j, i)
					if mOK != lOK || (mOK && !feq(mOS, lOS)) {
						t.Fatalf("trial %d: τ(%d,%d) indexed (%v,%v) vs lazy (%v,%v)",
							trial, j, i, mOS, mOK, lOS, lOK)
					}
					if mOK && mBS < lBS-1e-9 {
						t.Fatalf("trial %d: τ(%d,%d) secondary %v below lazy optimum %v", trial, j, i, mBS, lBS)
					}

					mOS, mBS, mOK = mem.MinBudget(j, i)
					dOS, dBS, dOK = disk.MinBudget(j, i)
					if mOS != dOS || mBS != dBS || mOK != dOK {
						t.Fatalf("trial %d: σ(%d,%d) %s (%v,%v,%v) != memory (%v,%v,%v)",
							trial, j, i, name, dOS, dBS, dOK, mOS, mBS, mOK)
					}
					sliceM, _ = primSec(sigSliceM, j)
					sliceD, _ = primSec(sigSliceD, j)
					if mOK && (sliceM != mBS || sliceD != mBS) {
						t.Fatalf("trial %d %s: σ slice primary (%v,%v) != query %v", trial, name, sliceM, sliceD, mBS)
					}
					lOS, lBS, lOK = lazy.MinBudget(j, i)
					if mOK != lOK || (mOK && !feq(mBS, lBS)) {
						t.Fatalf("trial %d: σ(%d,%d) indexed (%v,%v) vs lazy (%v,%v)",
							trial, j, i, mBS, mOK, lBS, lOK)
					}
				}
			}
		}
	}
}

// TestPartitionedIndexedPaths verifies that table-walk materialization
// returns real graph walks whose summed attributes match the reported
// scores, on both the in-memory and the disk-loaded oracle.
func TestPartitionedIndexedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomTestGraph(rng, 60, false)
	mem, disk, _ := writeTestIndex(t, g, 9)
	for trial := 0; trial < 300; trial++ {
		from := graph.NodeID(rng.Intn(g.NumNodes()))
		to := graph.NodeID(rng.Intn(g.NumNodes()))
		for name, o := range map[string]*PartitionedOracle{"memory": mem, "disk": disk} {
			wantOS, wantBS, ok := o.MinObjective(from, to)
			path, pok := o.MinObjectivePath(from, to)
			if ok != pok {
				t.Fatalf("%s: τ(%d,%d) score ok=%v path ok=%v", name, from, to, ok, pok)
			}
			if ok {
				gotOS, gotBS := pathScores(t, g, path, ByObjective)
				if !feq(gotOS, wantOS) || !feq(gotBS, wantBS) {
					t.Fatalf("%s: τ(%d,%d) path scores (%v,%v), reported (%v,%v)",
						name, from, to, gotOS, gotBS, wantOS, wantBS)
				}
			}
			wantOS, wantBS, ok = o.MinBudget(from, to)
			path, pok = o.MinBudgetPath(from, to)
			if ok != pok {
				t.Fatalf("%s: σ(%d,%d) score ok=%v path ok=%v", name, from, to, ok, pok)
			}
			if ok {
				gotOS, gotBS := pathScores(t, g, path, ByBudget)
				if !feq(gotBS, wantBS) || !feq(gotOS, wantOS) {
					t.Fatalf("%s: σ(%d,%d) path scores (%v,%v), reported (%v,%v)",
						name, from, to, gotOS, gotBS, wantOS, wantBS)
				}
			}
		}
	}
}

// TestTargetSliceConcurrency hammers the slice cache from many goroutines
// (single-flight, eviction) — meaningful mainly under -race.
func TestTargetSliceConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomTestGraph(rng, 40, false)
	o := NewPartitionedOracle(g, 8)
	o.slices.budget = 6 * o.slices.charge // force eviction churn
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				to := graph.NodeID(r.Intn(g.NumNodes()))
				m := Metric(r.Intn(2))
				ts := o.TargetSlice(to, m)
				from := graph.NodeID(r.Intn(g.NumNodes()))
				p, s, ok := o.query(from, to, m)
				gotP, gotS := primSec(ts, from)
				if !ok {
					if !math.IsInf(gotP, 1) {
						t.Errorf("slice reaches unreachable pair (%d,%d)", from, to)
					}
					continue
				}
				if gotP != p || gotS != s {
					t.Errorf("slice (%v,%v) != query (%v,%v) for (%d,%d,%v)", gotP, gotS, p, s, from, to, m)
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestIndexLoadErrors exercises every typed load-failure path: damaged
// files fail with ErrIndexFormat, incompatible versions with
// ErrIndexVersion, and a mismatched graph with ErrIndexFingerprint — never
// a panic, never a silently wrong oracle.
func TestIndexLoadErrors(t *testing.T) {
	g := buildPaperGraph(t)
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
	other := NewPartitionedOracle(randomTestGraph(rand.New(rand.NewSource(9)), 8, true), 3)
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
	if err := NewPartitionedOracle(buildPaperGraph(t), 3).WriteIndex(&buf); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	const want = "4ed2934cd0d6f917dcdcd1b79b5b3f9cf4481d0e91b336c0c1ac33d17d0e6ced"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 4116 || got != want {
		t.Fatalf("paper graph index: %d bytes, sha256 %s; want 4116 bytes, %s", buf.Len(), got, want)
	}
}

// TestSourceSliceAgreement checks the outbound slices against the pair
// interface on random graphs, both metrics, memory- and disk-backed:
// identical reachability everywhere, and scores equal up to floating-point
// association (source slices hoist the per-source half of the assembly).
func TestSourceSliceAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		n := 12 + rng.Intn(25)
		g := randomTestGraph(rng, n, trial%2 == 0)
		_, disk, _ := writeTestIndex(t, g, 4+rng.Intn(8))
		mem := NewPartitionedOracle(g, disk.CellSize())
		for _, o := range []*PartitionedOracle{mem, disk} {
			for from := 0; from < n; from++ {
				tau := o.SourceSlice(graph.NodeID(from), ByObjective)
				sig := o.SourceSlice(graph.NodeID(from), ByBudget)
				for to := 0; to < n; to++ {
					os, bs, ok := o.MinObjective(graph.NodeID(from), graph.NodeID(to))
					prim, sec := primSec(tau, graph.NodeID(to))
					if sOK := !math.IsInf(prim, 1); sOK != ok {
						t.Fatalf("trial %d τ %d→%d: slice ok=%v, query ok=%v", trial, from, to, sOK, ok)
					}
					if ok && (!feq(prim, os) || !feq(sec, bs)) {
						t.Fatalf("trial %d τ %d→%d: slice (%v,%v), query (%v,%v)", trial, from, to, prim, sec, os, bs)
					}
					os, bs, ok = o.MinBudget(graph.NodeID(from), graph.NodeID(to))
					prim, sec = primSec(sig, graph.NodeID(to))
					if sOK := !math.IsInf(prim, 1); sOK != ok {
						t.Fatalf("trial %d σ %d→%d: slice ok=%v, query ok=%v", trial, from, to, sOK, ok)
					}
					// MinBudget reports (os, bs) = (secondary, primary).
					if ok && (!feq(prim, bs) || !feq(sec, os)) {
						t.Fatalf("trial %d σ %d→%d: slice (%v,%v), query (%v,%v)", trial, from, to, prim, sec, bs, os)
					}
				}
			}
		}
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
