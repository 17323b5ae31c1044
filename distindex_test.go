package kor

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"kor/internal/apsp"
)

// Tests for the persistent distance oracle wiring: an engine started with
// DistIndexPath serves from the disk-loaded tables, refuses a mismatched
// index outright, and degrades to a lazy oracle — never stale distances —
// when a live update changes an edge.

// buildDistIndex writes a distance index for g into a temp dir.
func buildDistIndex(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dist.kori")
	info, err := WriteDistIndex(path, g, 3)
	if err != nil {
		t.Fatalf("WriteDistIndex: %v", err)
	}
	if info.Fingerprint != g.Fingerprint() || info.Bytes <= 0 {
		t.Fatalf("WriteDistIndex info = %+v", info)
	}
	return path
}

func TestEngineServesFromDistIndex(t *testing.T) {
	g := swapCity(t, 0.7)
	path := buildDistIndex(t, g)

	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: path})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	ost := eng.OracleStatus()
	if ost.Kind != OracleKindPartitionedDisk || ost.Degraded {
		t.Fatalf("OracleStatus = %+v, want partitioned-disk, not degraded", ost)
	}
	if ost.IndexFingerprint != g.Fingerprint() || ost.IndexBytes <= 0 {
		t.Fatalf("OracleStatus index identity = %+v", ost)
	}

	// Same answers as the default engine on the reference query.
	resp, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resp.Best().Objective != 1.0 {
		t.Fatalf("objective = %v, want 1.0", resp.Best().Objective)
	}
}

func TestEngineRejectsMismatchedDistIndex(t *testing.T) {
	path := buildDistIndex(t, swapCity(t, 0.7))
	other := swapCity(t, 0.1)
	if _, err := NewEngine(other, &EngineConfig{DistIndexPath: path}); !errors.Is(err, apsp.ErrIndexFingerprint) {
		t.Fatalf("NewEngine err = %v, want ErrIndexFingerprint", err)
	}
}

func TestEngineDegradesAfterGraphChange(t *testing.T) {
	g := swapCity(t, 0.7)
	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: buildDistIndex(t, g)})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	// Patch the graph: the index no longer matches, so the snapshot must
	// serve from a fresh lazy oracle and flag itself degraded.
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	ost := eng.OracleStatus()
	if ost.Kind != OracleKindLazy || !ost.Degraded {
		t.Fatalf("post-patch OracleStatus = %+v, want degraded lazy", ost)
	}
	// And the answers must reflect the patched graph, not the index.
	resp, err := eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run after patch: %v", err)
	}
	if resp.Best().Objective != 0.4 {
		t.Fatalf("post-patch objective = %v, want 0.4", resp.Best().Objective)
	}

	// Swapping the original graph back restores disk-oracle serving: the
	// fingerprint matches again and the shared disk oracle is still alive.
	if _, err := eng.Swap(swapCity(t, 0.7)); err != nil {
		t.Fatalf("Swap back: %v", err)
	}
	ost = eng.OracleStatus()
	if ost.Kind != OracleKindPartitionedDisk || ost.Degraded {
		t.Fatalf("post-restore OracleStatus = %+v, want partitioned-disk again", ost)
	}
	resp, err = eng.Run(context.Background(), swapRequest())
	if err != nil {
		t.Fatalf("Run after restore: %v", err)
	}
	if resp.Best().Objective != 1.0 {
		t.Fatalf("post-restore objective = %v, want 1.0", resp.Best().Objective)
	}
}

// TestDegradedSinceLifecycle: the timestamp dates the start of the degraded
// episode — set on the first degrading patch, stable across further patches,
// and cleared the moment the index matches again.
func TestDegradedSinceLifecycle(t *testing.T) {
	g := swapCity(t, 0.7)
	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: buildDistIndex(t, g)})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	if ost := eng.OracleStatus(); !ost.DegradedSince.IsZero() {
		t.Fatalf("healthy engine reports DegradedSince %v", ost.DegradedSince)
	}

	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	first := eng.OracleStatus()
	if !first.Degraded || first.DegradedSince.IsZero() {
		t.Fatalf("post-patch OracleStatus = %+v, want degraded with a timestamp", first)
	}

	// A second patch extends the same episode; the start must not move.
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.2, Budget: 1.2}}}); err != nil {
		t.Fatalf("second Patch: %v", err)
	}
	second := eng.OracleStatus()
	if !second.Degraded || !second.DegradedSince.Equal(first.DegradedSince) {
		t.Fatalf("second patch moved DegradedSince from %v to %v", first.DegradedSince, second.DegradedSince)
	}

	// Recovery clears the timestamp along with the flag.
	if _, err := eng.Swap(swapCity(t, 0.7)); err != nil {
		t.Fatalf("Swap back: %v", err)
	}
	if ost := eng.OracleStatus(); ost.Degraded || !ost.DegradedSince.IsZero() {
		t.Fatalf("post-restore OracleStatus = %+v, want cleared DegradedSince", ost)
	}
}

// TestDegradedOracleIsByteBounded: the lazy oracle a disk-index engine falls
// back to holds nothing between queries, like one configured outright: it
// keeps no memo, so its memory is what the queries in flight hold. (The
// fallback used to be built apart from buildOracle and missed the sizing of
// the sweep memo it then had.)
func TestDegradedOracleIsByteBounded(t *testing.T) {
	g := swapCity(t, 0.7)
	eng, err := NewEngine(g, &EngineConfig{DistIndexPath: buildDistIndex(t, g)})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	if _, err := eng.Patch(Delta{UpdateEdges: []EdgePatch{{From: 0, To: 1, Objective: 0.1, Budget: 1.2}}}); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if ost := eng.OracleStatus(); !ost.Degraded || ost.Kind != OracleKindLazy {
		t.Fatalf("OracleStatus = %+v, want the degraded lazy fallback", ost)
	}
	if _, err := eng.Run(context.Background(), swapRequest()); err != nil {
		t.Fatal(err)
	}
	lazy, ok := eng.snap.Load().searcher.Oracle().(*apsp.LazyOracle)
	if !ok || lazy.SweepCount() == 0 {
		t.Fatalf("the degraded fallback is %T and ran no sweep", eng.snap.Load().searcher.Oracle())
	}
	if st := eng.oracleMemo(); st != (apsp.MemoStats{}) {
		t.Errorf("the degraded fallback reports memo state %+v after a query, want none", st)
	}
}

func TestOracleStatusWithoutDistIndex(t *testing.T) {
	eng, err := NewEngine(swapCity(t, 0.7), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	settle(eng)
	ost := eng.OracleStatus()
	if ost.Kind != OracleKindMatrix || ost.Degraded || ost.IndexFingerprint != 0 {
		t.Fatalf("OracleStatus = %+v, want plain matrix oracle", ost)
	}
}
