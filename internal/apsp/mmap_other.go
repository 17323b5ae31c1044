//go:build !unix

package apsp

import (
	"errors"
	"os"
)

// errNoMmap makes OpenIndex fall through to the portable read-all path, and
// the matrix tables to the Go heap, on platforms without a usable mmap.
var errNoMmap = errors.New("apsp: mmap unavailable on this platform")

func mmapFile(f *os.File, size int) ([]byte, error) { return nil, errNoMmap }

func munmapBytes(b []byte) error { return nil }

func mapTables(size int) ([]byte, error) { return nil, errNoMmap }
