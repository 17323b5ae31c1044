package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"kor"
	"kor/korapi"
)

// TestServeBinarySmoke builds the korserve binary, starts it on a saved
// graph, and drives the /v1 surface over real HTTP — the smoke job CI runs
// with `go test ./... -run TestServe`.
func TestServeBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test in -short mode")
	}
	dir := t.TempDir()

	bin := filepath.Join(dir, "korserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building korserve: %v\n%s", err, out)
	}

	graphPath := filepath.Join(dir, "city.korg")
	if err := kor.SaveGraph(graphPath, testGraph(t)); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	srv := exec.Command(bin, "-graph", graphPath, "-addr", addr, "-timeout", "5s")
	srv.Stderr = io.Discard
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		srv.Wait()
	}()

	base := "http://" + addr
	waitReady(t, base+"/v1/stats")

	var routeResp korapi.Response
	getInto(t, base+"/v1/route?from=0&to=0&keywords=jazz,park&budget=4", http.StatusOK, &routeResp)
	if len(routeResp.Routes) != 1 || !routeResp.Routes[0].Feasible {
		t.Errorf("binary /v1/route = %+v", routeResp)
	}

	var env korapi.ErrorEnvelope
	getInto(t, base+"/v1/route?from=0&to=2&keywords=spa&budget=5", http.StatusBadRequest, &env)
	if env.Error.Code != korapi.CodeUnknownKeyword {
		t.Errorf("binary error code = %q, want unknown_keyword", env.Error.Code)
	}

	var st korapi.Stats
	getInto(t, base+"/v1/stats", http.StatusOK, &st)
	if st.Nodes != 4 {
		t.Errorf("binary /v1/stats nodes = %d, want 4", st.Nodes)
	}
}

// TestServeBinaryAdminSmoke drives the live-update path through the real
// binaries, the way the CI smoke job does: kordata generates a graph AND a
// delta file, korserve starts on the graph, and the test patches it mid-run
// over HTTP — asserting the fingerprint in /v1/stats changes, queries keep
// answering, and a reload restores the on-disk dataset.
func TestServeBinaryAdminSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test in -short mode")
	}
	dir := t.TempDir()

	korserveBin := filepath.Join(dir, "korserve")
	if out, err := exec.Command("go", "build", "-o", korserveBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building korserve: %v\n%s", err, out)
	}
	kordataBin := filepath.Join(dir, "kordata")
	if out, err := exec.Command("go", "build", "-o", kordataBin, "../kordata").CombinedOutput(); err != nil {
		t.Fatalf("building kordata: %v\n%s", err, out)
	}

	graphPath := filepath.Join(dir, "road.korg")
	deltaPath := filepath.Join(dir, "patch.json")
	gen := exec.Command(kordataBin, "-kind", "road", "-nodes", "80", "-seed", "7",
		"-out", graphPath, "-emit-delta", deltaPath)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("kordata: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	srv := exec.Command(korserveBin, "-graph", graphPath, "-addr", addr, "-timeout", "5s")
	srv.Stderr = io.Discard
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		srv.Wait()
	}()

	base := "http://" + addr
	waitReady(t, base+"/v1/stats")
	stats := func(st *korapi.Stats) { getInto(t, base+"/v1/stats", http.StatusOK, st) }

	// The server answers on the lazy oracle while the matrix builds; the
	// generations below count from the snapshot the matrix was published on.
	before := waitOracle(t, stats)
	if before.Snapshot == nil || before.Oracle.Kind != "matrix" {
		t.Fatalf("boot snapshot = %+v on %+v, want the matrix", before.Snapshot, before.Oracle)
	}
	boot := before.Snapshot.Generation

	delta, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	var admin korapi.AdminResponse
	postInto(t, base+"/v1/admin/patch", delta, http.StatusOK, &admin)
	// The admin response reports the snapshot serving when it is written:
	// the patched graph on the lazy oracle, or already on its new matrix.
	if g := admin.Snapshot.Generation; g != boot+1 && g != boot+2 {
		t.Errorf("patched generation = %d, want %d or %d", g, boot+1, boot+2)
	}
	if admin.Snapshot.Fingerprint == before.Snapshot.Fingerprint {
		t.Error("fingerprint did not change after the patch")
	}

	// The delta changes an edge: the matrix is rebuilt for the new edges.
	after := waitOracle(t, stats)
	if after.Oracle.Kind != "matrix" || after.Snapshot.Generation != boot+2 {
		t.Errorf("after the patch's build: %+v on %+v, want the matrix at generation %d", after.Snapshot, after.Oracle, boot+2)
	}
	if after.Snapshot.Fingerprint != admin.Snapshot.Fingerprint {
		t.Errorf("stats fingerprint = %s, want patched %s", after.Snapshot.Fingerprint, admin.Snapshot.Fingerprint)
	}
	// The delta adds a marker keyword to node 0: the patched vocabulary is
	// live on the query path.
	var kws korapi.KeywordsResponse
	getInto(t, base+"/v1/keywords?prefix=kordata_patch_marker", http.StatusOK, &kws)
	if len(kws.Keywords) != 1 || kws.Keywords[0].Nodes != 1 {
		t.Errorf("patched keyword lookup = %+v", kws.Keywords)
	}

	// Reload restores the on-disk graph: fingerprint back to boot.
	var reloaded korapi.AdminResponse
	postInto(t, base+"/v1/admin/reload", nil, http.StatusOK, &reloaded)
	if g := reloaded.Snapshot.Generation; g != boot+3 && g != boot+4 {
		t.Errorf("reloaded generation = %d, want %d or %d", g, boot+3, boot+4)
	}
	if reloaded.Snapshot.Fingerprint != before.Snapshot.Fingerprint {
		t.Errorf("reloaded fingerprint = %s, want the on-disk %s", reloaded.Snapshot.Fingerprint, before.Snapshot.Fingerprint)
	}
}

func postInto(t *testing.T, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, respBody)
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		t.Fatalf("decoding %s body %q: %v", url, respBody, err)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("korserve binary never became ready at %s", url)
}

func getInto(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decoding %s body %q: %v", url, body, err)
	}
}
