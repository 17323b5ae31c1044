//go:build linux

package proc

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// statusMiB reads one memory field of /proc/<pid>/status: "VmRSS:" is the
// resident set now, "VmHWM:" the kernel's high-water mark of it.
func statusMiB(pid int, field string) (float64, bool) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kb, ok := parseStatusKB(sc.Text(), field); ok {
			return kb / 1024, true
		}
	}
	return 0, false
}

// parseStatusKB extracts the kilobyte figure from a "<field>  123456 kB"
// line.
func parseStatusKB(line, field string) (kb float64, ok bool) {
	rest, found := strings.CutPrefix(line, field)
	if !found {
		return 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	return v, err == nil
}
