package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestShardRequiresOut runs the built binary: -shard without -out is a usage
// error (exit 2) that writes nothing, where shard files named after an empty
// -out would land as hidden files in the working directory.
func TestShardRequiresOut(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "kordata")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building kordata: %v\n%s", err, out)
	}
	work := t.TempDir()
	cmd := exec.Command(bin, "-kind", "road", "-nodes", "300", "-stats", "-shard", "2")
	cmd.Dir = work
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("-shard without -out: err %v, want exit 2 (usage error)\n%s", err, out)
	}
	entries, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("wrote %s into the working directory", e.Name())
	}
}
