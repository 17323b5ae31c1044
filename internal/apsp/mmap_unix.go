//go:build unix

package apsp

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only. The mapping is private to the
// process and backed by the page cache, so repeated serving starts against
// the same index file share one resident copy.
func mmapFile(f *os.File, size int) ([]byte, error) {
	if size <= 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapBytes releases a mapping from mmapFile.
func munmapBytes(b []byte) error {
	return syscall.Munmap(b)
}

// mapTables returns size zeroed bytes of private anonymous memory, outside
// the Go heap: the collector neither scans it nor paces on it.
func mapTables(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}
