//go:build linux

package proc

import (
	"os"
	"testing"
)

func TestParseStatusKB(t *testing.T) {
	if kb, ok := parseStatusKB("VmHWM:\t  123456 kB", "VmHWM:"); !ok || kb != 123456 {
		t.Errorf("got %v, %v", kb, ok)
	}
	for _, line := range []string{"VmRSS:\t  99 kB", "VmHWM:", "VmHWM: lots kB", ""} {
		if _, ok := parseStatusKB(line, "VmHWM:"); ok {
			t.Errorf("parsed %q", line)
		}
	}
}

func TestResidentSetOfThisProcess(t *testing.T) {
	now, ok := statusMiB(os.Getpid(), "VmRSS:")
	peak, okPeak := statusMiB(os.Getpid(), "VmHWM:")
	if !ok || !okPeak || now <= 0 || peak < now {
		t.Errorf("resident set %v (%v), peak %v (%v)", now, ok, peak, okPeak)
	}
}
