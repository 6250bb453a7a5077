package bench

import "testing"

// TestKernelsExperiment checks the kernelbench harness structurally:
// measurements exist, results are bit-identical between the fast and
// reference paths, and every bandwidth is nonzero. The speedup gates
// themselves (acceptance floors, baseline ratios) run in the CI bench-smoke
// job via Violations, where a dedicated machine-noise margin applies;
// asserting them under `go test` on an arbitrarily loaded host would
// make the unit suite flaky for no extra coverage.
func TestKernelsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel bandwidth measurement under -short")
	}
	if raceEnabled {
		// The experiment is all timed loops over memory-resident slabs;
		// race instrumentation slows them 10x+ without adding coverage
		// (the bit-equality checks it would run are already pinned by the
		// golden and fuzz suites in internal/pq and internal/ivfpq).
		t.Skip("kernel bandwidth measurement under the race detector")
	}
	ctx := NewContext(tinyOptions())
	rep, err := ctx.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	art, ok := rep.Artifact.(*KernelsArtifact)
	if !ok {
		t.Fatalf("kernels artifact has type %T", rep.Artifact)
	}
	if art.Mismatches != 0 {
		t.Fatalf("%d fast/reference mismatches", art.Mismatches)
	}
	if len(art.Points) != 6 {
		t.Fatalf("%d kernel points, want 6", len(art.Points))
	}
	for _, p := range art.Points {
		if p.RefGBps <= 0 || p.FastGBps <= 0 {
			t.Errorf("%s: nonpositive bandwidth %+v", p.Name, p)
		}
	}
	if art.SearchQPSFast <= 0 || art.SearchQPSRef <= 0 {
		t.Error("end-to-end search throughput is zero")
	}
	if art.RooflineGBps <= 0 {
		t.Error("roofline bound missing")
	}
	if len(rep.Tables) != 2 {
		t.Errorf("%d tables, want 2", len(rep.Tables))
	}
}
