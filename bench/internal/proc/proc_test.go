package proc

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// With BENCH_PROC_HELPER set the test binary is the server under test: it
// answers /v1/stats on -addr until killed.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_PROC_HELPER") == "" {
		os.Exit(m.Run())
	}
	fs := flag.NewFlagSet("helper", flag.ExitOnError)
	addr := fs.String("addr", "", "listen address")
	exit := fs.Bool("exit", false, "exit at once instead of serving")
	fs.Parse(os.Args[1:])
	if *exit {
		os.Exit(3)
	}
	http.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) })
	http.ListenAndServe(*addr, nil)
}

func helper(t *testing.T) string {
	t.Helper()
	t.Setenv("BENCH_PROC_HELPER", "1")
	return os.Args[0]
}

func TestStartReadyStop(t *testing.T) {
	var g Group
	defer g.Close()
	p, err := g.Start(helper(t), nil, filepath.Join(t.TempDir(), "server.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.URL, "http://127.0.0.1:") {
		t.Errorf("URL = %q", p.URL)
	}
	if err := p.WaitReady(http.DefaultClient, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	g.Close()
	select {
	case <-p.exited:
	default:
		t.Fatal("Close returned before the process was reaped")
	}
	if _, err := http.Get(p.URL + "/v1/stats"); err == nil {
		t.Error("server still answers after Close")
	}
	if _, err := g.Start(helper(t), nil, filepath.Join(t.TempDir(), "late.log")); err == nil {
		t.Error("a closed group started another process")
	}
}

func TestWaitReadyReportsEarlyExit(t *testing.T) {
	var g Group
	defer g.Close()
	p, err := g.Start(helper(t), []string{"-exit"}, filepath.Join(t.TempDir(), "server.log"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.WaitReady(http.DefaultClient, 10*time.Second); err == nil || !strings.Contains(err.Error(), "exited") {
		t.Errorf("WaitReady on a dead process: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("WaitReady sat out its timeout on a dead process")
	}
}

func TestStartFailsOnMissingBinary(t *testing.T) {
	var g Group
	defer g.Close()
	if _, err := g.Start(filepath.Join(t.TempDir(), "no-such-binary"), nil, filepath.Join(t.TempDir(), "x.log")); err == nil {
		t.Error("started a binary that does not exist")
	}
}
