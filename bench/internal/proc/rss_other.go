//go:build !linux

package proc

// statusMiB is unavailable off Linux; the memory metrics are omitted there.
func statusMiB(int, string) (float64, bool) { return 0, false }
