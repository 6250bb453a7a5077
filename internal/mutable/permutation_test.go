package mutable

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/tier"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// The probe-permutation property: ivfpq.Scratch.Run over any order of a
// query's probe list returns, bit for bit, the candidates
// SearchReference returns in probe order — over posting lists, over a
// tier store in every residency regime, and under mutable's scan with
// overlay runs scored off the same LUTs. Every index carries a forced
// cross-cluster tie, and each query is also run with its probes reversed,
// so a top-k that kept the first tied candidate it met would fail.

// tieCopies is how many entries of the tied code each of the two tied
// clusters holds: more than any k below, so the tie straddles every
// boundary.
const tieCopies = 32

// tieBase puts the tied ids above every id the test writes otherwise.
const tieBase = int64(1) << 40

// tiedIndex builds a random index and forces a tie across clusters: it
// gives cluster 1 cluster 0's centroid, then appends tieCopies entries of
// one code to each, under the larger ids in cluster 0. The code is the
// encoding of a zero residual, so for the returned query, the shared
// centroid, it is the nearest code any cluster can hold. All tied ids
// are even.
func tiedIndex(t *testing.T, seed uint64, rows, dim, nlist, m int) (*ivfpq.Index, *vecmath.Matrix, []float32) {
	t.Helper()
	r := xrand.New(seed)
	data := vecmath.NewMatrix(rows, dim)
	for i := range data.Data {
		data.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(data, ivfpq.Params{NList: nlist, M: m, Seed: seed})
	ix.Add(data, 0)
	copy(ix.Coarse.Centroids.Row(1), ix.Coarse.Centroids.Row(0))
	code := ix.PQ.Encode(make([]uint8, m), make([]float32, dim))
	for i := int64(0); i < tieCopies; i++ {
		ix.AppendEncoded(1, tieBase+2*i, code)
		ix.AppendEncoded(0, tieBase+2*(tieCopies+i), code)
	}
	return ix, data, append([]float32(nil), ix.Coarse.Centroids.Row(0)...)
}

// permPayload is one way to serve an index's clusters; store is set for
// the tier regimes, whose prefetcher the test hints.
type permPayload struct {
	name  string
	p     ivfpq.Payload
	store *tier.Store
}

// permPayloads serves ix's clusters from its posting lists and from tier
// stores over its image: all pinned hot, all cold, a frequency-pinned hot
// half, and a hot quarter with prefetch workers racing the scan.
func permPayloads(t *testing.T, ix *ivfpq.Index) []permPayload {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ivfpq.OpenImage(bytes.NewReader(buf.Bytes()), n)
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, ix.NList())
	for i := range freqs {
		freqs[i] = float64(1 + i%7)
	}
	out := []permPayload{{name: "lists", p: ix}}
	for _, rg := range []struct {
		name string
		cfg  tier.Config
	}{
		{"tier-hot", tier.Config{HotBytes: n}},
		{"tier-cold", tier.Config{}},
		{"tier-hot-half", tier.Config{HotBytes: n / 2}},
		{"tier-prefetch", tier.Config{HotBytes: n / 4, PrefetchWorkers: 2, PrefetchDepth: 8}},
	} {
		st := tier.NewStore(tier.NewImageSource(img), rg.cfg)
		t.Cleanup(st.Close)
		st.SeedFrequencies(freqs)
		st.Rebalance()
		if hot := st.Stats().HotClusters; (rg.cfg.HotBytes > 0) != (hot > 0) {
			t.Fatalf("%s: %d clusters pinned under budget %d", rg.name, hot, rg.cfg.HotBytes)
		}
		out = append(out, permPayload{rg.name, st, st})
	}
	return out
}

// permute shuffles probes in place; when reverse is set it reverses them
// instead, which puts cluster 1 before cluster 0 wherever the natural
// order had them the other way round.
func permute(r *xrand.RNG, probes []int32, reverse bool) {
	if reverse {
		slices.Reverse(probes)
		return
	}
	for i := len(probes) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		probes[i], probes[j] = probes[j], probes[i]
	}
}

func sameRanked(t *testing.T, label string, got, want []topk.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates vs reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

var permPreds = []struct {
	name  string
	allow func(id int64) bool
}{
	{"plain", nil},
	{"even", func(id int64) bool { return id%2 == 0 }},
	{"none", func(int64) bool { return false }},
}

func TestRunProbePermutation(t *testing.T) {
	r := xrand.New(19)
	for si, sh := range []struct{ rows, dim, nlist, m, nprobe, k int }{
		{1500, 16, 12, 8, 5, 10},
		{2500, 32, 16, 4, 8, 20},
		{900, 8, 6, 2, 6, 1},
	} {
		ix, data, tieQuery := tiedIndex(t, uint64(50+si), sh.rows, sh.dim, sh.nlist, sh.m)
		payloads := permPayloads(t, ix)
		queries := vecmath.NewMatrix(4, sh.dim)
		copy(queries.Row(0), tieQuery)
		for qi := 1; qi < queries.Rows; qi++ {
			copy(queries.Row(qi), data.Row(r.Intn(data.Rows)))
		}
		t.Run(fmt.Sprintf("scan/shape%d", si), func(t *testing.T) {
			checkRunPermutation(t, r, ix, payloads, queries, sh.nprobe, sh.k)
		})
		t.Run(fmt.Sprintf("overlay/shape%d", si), func(t *testing.T) {
			checkOverlayPermutation(t, r, ix, payloads, queries, sh.nprobe, sh.k)
		})
	}
}

// checkRunPermutation drives Run directly over every payload, both
// arithmetic modes and every predicate, for the probe list reversed and
// shuffled.
func checkRunPermutation(t *testing.T, r *xrand.RNG, ix *ivfpq.Index, payloads []permPayload, queries *vecmath.Matrix, nprobe, k int) {
	s := ivfpq.NewScratch()
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		for _, quantized := range []bool{false, true} {
			for _, pred := range permPreds {
				o := ivfpq.SearchOpts{NProbe: nprobe, K: k, Allow: pred.allow, Quantized: quantized}
				want, _ := ix.SearchReference(q, o)
				for _, reverse := range []bool{true, false} {
					probes, _ := ix.Coarse.ProbeInto(nil, nil, q, nprobe)
					permute(r, probes, reverse)
					for _, pl := range payloads {
						label := fmt.Sprintf("query %d/%s/quantized=%v/%s/probes %v", qi, pred.name, quantized, pl.name, probes)
						if pl.store != nil {
							pl.store.Hint(probes)
						}
						s.Begin(ix, q, o)
						if err := s.Run(probes, pl.p); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got, _ := s.Finish()
						sameRanked(t, label, got, want)
					}
				}
			}
		}
	}
}

// checkOverlayPermutation runs mutable's scan, overlay runs included,
// over every payload with each query's probes permuted (the tie query's
// reversed): the base half must match SearchReference and the overlay
// half the scalar overlay walk.
func checkOverlayPermutation(t *testing.T, r *xrand.RNG, ix *ivfpq.Index, payloads []permPayload, queries *vecmath.Matrix, nprobe, k int) {
	cfg := ServingConfig(4, 10, 4, 1)
	cfg.CheckInterval = -1 // no background compaction: the overlay must stay put
	u, err := New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	rows, dim := int64(ix.NTotal), ix.Dim
	vec := make([]float32, dim)
	for id := rows; id < rows+300; id++ {
		for i := range vec {
			vec[i] = float32(r.NormFloat64())
		}
		if err := upsertOne(u, id, vec); err != nil {
			t.Fatal(err)
		}
	}
	for id := rows; id < rows+300; id += 7 {
		u.Remove([]int64{id}) // overlay deletes
	}
	u.Remove([]int64{0, 2, tieBase})                                // base deletes
	if err := upsertOne(u, rows+1000, queries.Row(0)); err != nil { // the tied code, in the overlay
		t.Fatal(err)
	}

	u.mu.RLock()
	defer u.mu.RUnlock()
	snap := u.snap.Load()
	sc := readPool.Get().(*readScratch)
	sc.probe(snap.ix, queries, nprobe)
	probes := make([][]int32, queries.Rows)
	for qi := range probes {
		probes[qi] = sc.probesOf(qi)
		permute(r, probes[qi], qi == 0)
	}
	for _, pred := range permPreds {
		u.gatherOverlay(sc, queries.Rows, pred.allow)
		wantLive := scalarOverlayScan(u, snap, queries, probes, k, pred.allow)
		rd := baseRead{k: k, match: pred.allow, plan: filter.Plan{Mode: filter.ModePre, FetchK: k}, live: true}
		bo := ivfpq.SearchOpts{NProbe: nprobe, K: max(k, u.cfg.Engine.K), Allow: pred.allow, Quantized: true}
		for _, pl := range payloads {
			view := &snapshot{ix: snap.ix, base: pl.p, store: pl.store}
			base, live, _, err := u.scan(sc, view, queries, rd)
			if err != nil {
				t.Fatalf("%s/%s: %v", pred.name, pl.name, err)
			}
			for qi := range base {
				label := fmt.Sprintf("query %d/%s/%s/probes %v", qi, pred.name, pl.name, probes[qi])
				wantBase, _ := snap.ix.SearchReference(queries.Row(qi), bo)
				sameRanked(t, label+"/base", base[qi], wantBase)
				sameRanked(t, label+"/overlay", live[qi], wantLive[qi])
			}
		}
	}
}
