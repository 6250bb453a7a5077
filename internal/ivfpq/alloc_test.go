package ivfpq_test

import (
	"bytes"
	"testing"

	"repro/internal/ivfpq"
	"repro/internal/tier"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestSearchZeroAllocSteadyState is the acceptance gate for the scratch
// plumbing: with an explicit warmed Scratch, Search performs zero heap
// allocations per query in every mode, over the posting lists and over an
// all-hot tier store alike. It is an external test so that it can drive
// tier.Index.Search, which runs the same probe loop.
func TestSearchZeroAllocSteadyState(t *testing.T) {
	r := xrand.New(9)
	data := vecmath.NewMatrix(4000, 32)
	for i := range data.Data {
		data.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(data, ivfpq.Params{NList: 32, M: 8, Seed: 9})
	ix.Add(data, 0)

	var img bytes.Buffer
	n, err := ix.WriteImage(&img)
	if err != nil {
		t.Fatal(err)
	}
	image, err := ivfpq.OpenImage(bytes.NewReader(img.Bytes()), n)
	if err != nil {
		t.Fatal(err)
	}
	store := tier.NewStore(tier.NewImageSource(image), tier.Config{HotBytes: n})
	t.Cleanup(store.Close)
	freqs := make([]float64, ix.NList())
	for i := range freqs {
		freqs[i] = 1
	}
	store.SeedFrequencies(freqs)
	store.Rebalance()
	tix, err := tier.NewIndex(ix, store)
	if err != nil {
		t.Fatal(err)
	}

	searches := []struct {
		name   string
		search func(q []float32, o ivfpq.SearchOpts)
	}{
		{"lists", func(q []float32, o ivfpq.SearchOpts) { ix.Search(q, o) }},
		{"tier_hot", func(q []float32, o ivfpq.SearchOpts) {
			if _, _, err := tix.Search(q, o); err != nil {
				t.Fatal(err)
			}
		}},
	}
	allow := func(id int64) bool { return id%3 != 0 }
	cases := []struct {
		name string
		o    ivfpq.SearchOpts
	}{
		{"float", ivfpq.SearchOpts{NProbe: 6, K: 10}},
		{"quantized", ivfpq.SearchOpts{NProbe: 6, K: 10, Quantized: true}},
		{"filtered", ivfpq.SearchOpts{NProbe: 6, K: 10, Allow: allow}},
		{"filtered_quantized", ivfpq.SearchOpts{NProbe: 6, K: 10, Allow: allow, Quantized: true}},
	}
	for _, sr := range searches {
		for _, tc := range cases {
			o := tc.o
			o.Scratch = ivfpq.NewScratch()
			qi := 0
			// Warm the scratch (first call grows every buffer), then
			// demand allocation-free steady state.
			sr.search(data.Row(0), o)
			allocs := testing.AllocsPerRun(50, func() {
				qi++
				sr.search(data.Row(qi%data.Rows), o)
			})
			if allocs != 0 {
				t.Errorf("%s/%s: %v allocs per search in steady state, want 0", sr.name, tc.name, allocs)
			}
		}
	}
	if st := store.Stats(); st.HotMisses != 0 {
		t.Fatalf("all-hot store missed %d times", st.HotMisses)
	}
}
