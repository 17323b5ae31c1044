package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"

	"kor"
)

// TestNodeIDRange runs the built binary: -from and -to outside
// [0, MaxInt32] are usage errors (exit 2), not ids wrapped onto another
// node, while an id in range still reaches the search.
func TestNodeIDRange(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "korquery")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building korquery: %v\n%s", err, out)
	}
	g := kor.SyntheticRoadNetwork(2012, 300)
	graphPath := filepath.Join(dir, "road.korg")
	if err := kor.SaveGraph(graphPath, g); err != nil {
		t.Fatal(err)
	}
	exitCode := func(from, to string) (int, string) {
		out, err := exec.Command(bin, "-graph", graphPath, "-from", from, "-to", to,
			"-keywords", g.Vocab().Name(0), "-delta", "60").CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, string(out)
		case errors.As(err, &exit):
			return exit.ExitCode(), string(out)
		}
		t.Fatalf("running korquery: %v", err)
		return 0, ""
	}

	for _, ids := range [][2]string{
		{"4294967296", "3"}, // 2³², which wraps to node 0
		{"3", "4294967299"},
		{"2147483648", "3"},
		{"-1", "3"},
	} {
		if code, out := exitCode(ids[0], ids[1]); code != 2 {
			t.Errorf("-from %s -to %s: exit %d, want 2 (usage error)\n%s", ids[0], ids[1], code, out)
		}
	}
	if code, out := exitCode("0", "3"); code == 2 {
		t.Errorf("-from 0 -to 3: rejected as a usage error\n%s", out)
	}
}
