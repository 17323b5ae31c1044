//go:build linux

package apsp

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kor/internal/graph"
)

// mappedRss returns how many bytes of this process's mappings of the file
// at path are resident, from the Rss lines of /proc/self/smaps.
func mappedRss(t *testing.T, path string) int64 {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	var rss int64
	found, ours := false, false
	for _, line := range strings.Split(string(smaps), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !strings.HasSuffix(f[0], ":") { // "lo-hi perms offset dev inode [path]" opens a mapping
			ours = len(f) >= 6 && strings.Join(f[5:], " ") == path
			found = found || ours
			continue
		}
		if ours && f[0] == "Rss:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps line %q: %v", line, err)
			}
			rss += kb << 10
		}
	}
	if !found {
		t.Fatalf("no mapping of %s in /proc/self/smaps", path)
	}
	return rss
}

// TestIndexResidency: a mapped index keeps resident what its queries read,
// not the file. Opening it checks the payload CRC through read(2) and reads
// the partition arrays at the head of the payload; queries confined to two
// cells — every cell's bound, as the lower-bound scan asks for, and the
// scores and pair queries of the two cells' nodes — read those cells'
// tables, the overlay blocks between them and the cell-pair minima. Checking
// the CRC through the mapping, or filling the minima from the overlay,
// makes the whole file resident. The page cache may map a file in folios of
// up to 2 MiB, so the file must be large against the few folios the two
// cells' data lie in. A ring cut into cells of two nodes makes every node a
// border: 700 cells and a 1,400² overlay, a 94 MB file, whose border graph
// has degree 2, so the overlay fill stays cheap under -race and coverage.
func TestIndexResidency(t *testing.T) {
	g := ringGraph(rand.New(rand.NewSource(1)), 1400, 0)
	_, disk, path := writeTestIndex(t, g, 2)
	if !disk.IndexInfo().Mapped {
		t.Fatal("OpenIndex did not map the file on linux")
	}
	size := disk.IndexInfo().Bytes
	check := func(when string, limit int64) {
		t.Helper()
		rss := mappedRss(t, path)
		t.Logf("%s: %d of %d bytes resident (%.1f %%)", when, rss, size, 100*float64(rss)/float64(size))
		if rss > size/limit {
			t.Fatalf("%s: %d of the index's %d bytes are resident, want at most 1/%d", when, rss, size, limit)
		}
	}
	check("after OpenIndex", 20)

	// The root's cell 0 and the cell across its first cross-cell edge.
	root := disk.cells[0].nodes[0]
	cells := []int{0}
neighbour:
	for _, v := range disk.cells[0].nodes {
		for _, e := range g.Out(v) {
			if c := int(disk.region[e.To]); c != 0 {
				cells = append(cells, c)
				break neighbour
			}
		}
	}
	var nodes []graph.NodeID
	for _, c := range cells {
		nodes = append(nodes, disk.cells[c].nodes...)
	}
	for _, m := range []Metric{ByObjective, ByBudget} {
		for _, ts := range []*TargetSlice{disk.TargetSlice(root, m), disk.SourceSlice(root, m)} {
			for c := range disk.cells {
				ts.CellBound(c)
			}
			for _, v := range nodes {
				ts.Scores(v)
			}
		}
	}
	for _, v := range nodes {
		disk.MinObjective(v, root)
		disk.MinBudget(root, v)
	}
	disk.MinObjectivePath(nodes[len(nodes)-1], root)
	check("after queries in two cells", 5)
}
