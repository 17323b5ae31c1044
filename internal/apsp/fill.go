package apsp

import (
	"runtime"
	"sync"
)

// fillRows is how many source rows one fill job sweeps. In the matrix their
// entries of a column are 512 contiguous bytes, whole cache lines written by
// one worker, rather than one scattered 16-byte write per row.
const fillRows = 32

// fillTables is the one worker pool behind every all-pairs table: the
// matrix, each cell's tables and the overlay's. Table t has rows[t] source
// rows, handed out in blocks of fillRows; a job is (table, first row), so one
// large table keeps every CPU busy. Each worker calls newFill once, for its
// own scratch, then fill(t, first, count) per job. Jobs write disjoint rows,
// so nothing is synchronized but the final wait.
func fillTables(rows []int, newFill func() func(t, first, count int)) {
	type job struct{ t, first int }
	jobs := make(chan job)
	total := 0
	for _, r := range rows {
		total += (r + fillRows - 1) / fillRows
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), total); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := newFill()
			for j := range jobs {
				fill(j.t, j.first, min(fillRows, rows[j.t]-j.first))
			}
		}()
	}
	for t, r := range rows {
		for first := 0; first < r; first += fillRows {
			jobs <- job{t, first}
		}
	}
	close(jobs)
	wg.Wait()
}
