package ivfpq

import (
	"testing"

	"repro/internal/topk"
	"repro/internal/xrand"
)

// The golden equivalence suite: the blocked kernel path (Search) must be
// bit-identical to the retained scalar path (SearchReference) — same IDs,
// same float32 distances, same order — across randomized index shapes,
// both arithmetic modes, and filter selectivities from near-empty to
// everything. The float summation-order contract in pq/scan.go is what
// makes exact equality possible; this suite is its enforcement.

// goldenShape is one randomized index configuration.
type goldenShape struct {
	rows, dim, nlist, m, nprobe, k int
}

func goldenShapes(r *xrand.RNG, n int) []goldenShape {
	dims := []int{8, 16, 24, 32, 48}
	ms := map[int][]int{8: {2, 4, 8}, 16: {4, 8, 16}, 24: {3, 6, 12}, 32: {4, 8, 16}, 48: {6, 12, 24}}
	shapes := make([]goldenShape, 0, n)
	for i := 0; i < n; i++ {
		dim := dims[r.Intn(len(dims))]
		mch := ms[dim]
		shapes = append(shapes, goldenShape{
			rows:   500 + r.Intn(3000),
			dim:    dim,
			nlist:  4 + r.Intn(29),
			m:      mch[r.Intn(len(mch))],
			nprobe: 1 + r.Intn(8),
			k:      1 + r.Intn(20),
		})
	}
	return shapes
}

func sameCandidates(t *testing.T, label string, got, want []topk.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates vs reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: candidate %d = {%d %v}, reference {%d %v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

func TestSearchGoldenEquivalence(t *testing.T) {
	r := xrand.New(2024)
	// The fixed last shape has dsub 8, so pq's LUT row kernel is always
	// checked against BuildLUTReference, whatever the random shapes draw.
	shapes := append(goldenShapes(r, 8), goldenShape{rows: 2500, dim: 32, nlist: 16, m: 4, nprobe: 6, k: 10})
	for si, sh := range shapes {
		ix, data := buildIndex(t, uint64(100+si), sh.rows, sh.dim, sh.nlist, sh.m)
		// Selectivities from near-empty through everything; the modulus
		// predicate is deterministic, so both paths see the same allow set.
		preds := []struct {
			name  string
			allow func(id int64) bool
		}{
			{"plain", nil},
			{"all", func(int64) bool { return true }},
			{"half", func(id int64) bool { return id%2 == 0 }},
			{"sparse", func(id int64) bool { return id%97 == 0 }},
			{"none", func(int64) bool { return false }},
		}
		for trial := 0; trial < 4; trial++ {
			q := data.Row(r.Intn(data.Rows))
			for _, quantized := range []bool{false, true} {
				for _, p := range preds {
					o := SearchOpts{NProbe: sh.nprobe, K: sh.k, Allow: p.allow, Quantized: quantized}
					got, gst := ix.Search(q, o)
					want, wst := ix.SearchReference(q, o)
					label := p.name
					if quantized {
						label += "/quantized"
					}
					sameCandidates(t, label, got, want)
					if gst.CodesScanned != wst.CodesScanned || gst.CodesFiltered != wst.CodesFiltered {
						t.Fatalf("%s: stats diverge: scanned %d/%d filtered %d/%d",
							label, gst.CodesScanned, wst.CodesScanned,
							gst.CodesFiltered, wst.CodesFiltered)
					}
				}
			}
		}
	}
}

// TestSearchScratchReuse checks that one Scratch serves indexes of
// different shapes and both modes back to back without corrupting
// results, and that the explicit-scratch result aliases the scratch
// (documented) while the pooled path returns a stable copy.
func TestSearchScratchReuse(t *testing.T) {
	ixA, dataA := buildIndex(t, 5, 2000, 16, 8, 4)
	ixB, dataB := buildIndex(t, 6, 1500, 32, 12, 8)
	s := NewScratch()
	for trial := 0; trial < 3; trial++ {
		for _, quantized := range []bool{false, true} {
			oA := SearchOpts{NProbe: 4, K: 10, Quantized: quantized, Scratch: s}
			got, _ := ixA.Search(dataA.Row(trial), oA)
			oA.Scratch = nil
			want, _ := ixA.Search(dataA.Row(trial), oA)
			sameCandidates(t, "shape A", got, want)

			oB := SearchOpts{NProbe: 6, K: 5, Quantized: quantized, Scratch: s}
			got, _ = ixB.Search(dataB.Row(trial), oB)
			oB.Scratch = nil
			want, _ = ixB.Search(dataB.Row(trial), oB)
			sameCandidates(t, "shape B", got, want)
		}
	}
}
