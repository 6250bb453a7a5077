package serve

import (
	"context"
	"testing"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/tier"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestCostAttributionTiered pins the cost plane end to end over a real
// tiered deployment: queries served out of core must show up in the
// server's cost ring with cold-tier bytes attributed, scheduling time
// filled by the serving layer, and the totals matching the ring.
func TestCostAttributionTiered(t *testing.T) {
	const dim = 16
	r := xrand.New(9)
	base := vecmath.NewMatrix(2000, dim)
	for i := range base.Data {
		base.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(base, ivfpq.Params{NList: 8, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)

	cfg := mutable.ServingConfig(4, 10, 2, 1)
	cfg.CheckInterval = -1
	// A hot budget far below the base size forces most cluster reads to
	// stream from the cold tier, so every query should carry cold bytes.
	cfg.Tier = &mutable.TierConfig{
		Dir:   t.TempDir(),
		Store: tier.Config{HotBytes: 2 << 10, PrefetchWorkers: 1},
	}
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	costs := obs.NewCostTracker(8)
	s, err := NewServer(Config{K: 10, Costs: costs}, u)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := s.Search(ctx, base.Row(i*37)); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}

	p := costs.Payload()
	if p.Queries != 10 {
		t.Fatalf("cost ring saw %d queries, want 10", p.Queries)
	}
	if p.ColdBytes == 0 {
		t.Fatal("tiered queries attributed no cold-tier bytes")
	}
	if p.TotalBytes < p.ColdBytes {
		t.Fatalf("totals inconsistent: total %d < cold %d", p.TotalBytes, p.ColdBytes)
	}
	if len(p.Top) == 0 {
		t.Fatal("heat ring empty after tiered queries")
	}
	top := p.Top[0]
	if top.Cost.ColdBytes == 0 {
		t.Fatalf("top entry carries no cold bytes: %+v", top)
	}
	if top.Cost.CodesScanned == 0 || top.Cost.LUTBytes == 0 {
		t.Fatalf("top entry missing scan accounting: %+v", top)
	}
	if top.Cost.DispatchSeconds <= 0 {
		t.Fatalf("serving layer did not fill dispatch time: %+v", top)
	}
	if top.TotalBytes != top.Cost.TotalBytes() {
		t.Fatalf("ring TotalBytes %d != cost vector %d", top.TotalBytes, top.Cost.TotalBytes())
	}
}

// TestCostCacheHitEntries pins the cache-hit path: a repeated query
// answered from the result cache still lands in the totals, flagged
// CacheHit with zero backend bytes.
func TestCostCacheHitEntries(t *testing.T) {
	const dim = 4
	costs := obs.NewCostTracker(4)
	s, err := NewServer(Config{
		K: 1, CacheSize: 16, Costs: costs,
	}, echoBackend(dim, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	v := vec(dim, 7)
	if _, err := s.Search(ctx, v); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(ctx, v); err != nil {
		t.Fatal(err)
	}
	p := costs.Payload()
	if p.Queries != 2 {
		t.Fatalf("cost ring saw %d queries, want 2 (miss + hit)", p.Queries)
	}
	hits := 0
	for _, e := range p.Top {
		if e.Cost.CacheHit {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("zero-byte cache hits entered the heat ring: %+v", p.Top)
	}
}

// TestCostFilteredEqualsUnfilteredScan pins "a predicate only prunes the
// scan": the measured cost vector of an unfiltered query and of the same
// query under an always-true pre-filter report the same code bytes.
func TestCostFilteredEqualsUnfilteredScan(t *testing.T) {
	const dim = 16
	r := xrand.New(10)
	base := vecmath.NewMatrix(2000, dim)
	for i := range base.Data {
		base.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(base, ivfpq.Params{NList: 8, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)

	schema, err := filter.NewSchema(filter.Field{Name: "tenant", Type: filter.TInt})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mutable.ServingConfig(4, 10, 2, 1)
	cfg.CheckInterval = -1
	cfg.Schema = schema
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	ids := make([]int64, base.Rows)
	attrs := make([]filter.Attrs, base.Rows)
	for i := range ids {
		ids[i] = int64(i)
		attrs[i] = filter.Attrs{"tenant": filter.IntValue(1)}
	}
	if err := u.LoadAttrs(ids, attrs); err != nil {
		t.Fatal(err)
	}
	pred, err := filter.Parse(`tenant = 1`)
	if err != nil {
		t.Fatal(err)
	}

	q := vecmath.WrapMatrix(base.Row(5), 1, dim)
	var plain, filtered obs.Cost
	if _, err := u.Search(q, mutable.SearchOpts{K: 10, Cost: &plain}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Search(q, mutable.SearchOpts{K: 10, Pred: pred, Mode: filter.ModePre, Cost: &filtered}); err != nil {
		t.Fatal(err)
	}
	if plain.CodeBytes == 0 || plain.CodeBytes != filtered.CodeBytes {
		t.Fatalf("code bytes: unfiltered %d, always-true pre-filter %d", plain.CodeBytes, filtered.CodeBytes)
	}
}
