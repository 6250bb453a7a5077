package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/pim"
	"repro/internal/pq"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// The traced run: once the measured windows are over and nothing else
// contends, a fixed seed-derived sample of the workload's requests is
// replayed sequentially once per nesting depth,
//
//	client POST -> Router.SearchOpts -> shard POST -> Server.SearchOpts
//	  -> UpdatableIndex.Search -> base scan -> pq kernels
//
// with a span around every call. A layer's self time is its median minus
// the median of the depth below it. Per-shard depths pool their samples
// over the shards. Simulated-DPU numbers (core.sim_*) and host wall time
// never share a name.

// Span names of the replay.
const (
	spClientPost   = "client.post"
	spClusterSrch  = "cluster.search"
	spClusterMerge = "cluster.merge"
	spServeHTTP    = "serve.http"
	spServeSearch  = "serve.search"
	spServeWrite   = "serve.write"
	spMutSearch    = "mutable.search"
	spMutB32       = "mutable.search_b32"
	spCoreBatch    = "core.searchbatch"
	spCoreB32      = "core.searchbatch_b32"
	spIvfpqSearch  = "ivfpq.search"
	spIvfpqFilter  = "ivfpq.search_filtered"
	spTierSearch   = "tier.search"
	spIvfProbe     = "ivf.probe"
	spLUTBuild     = "pq.lut_build"
	spJSONDecode   = "serve.json_decode"
	spJSONEncode   = "serve.json_encode"
	spFilterParse  = "filter.parse"
	spFilterEval   = "filter.eval"
)

type replay struct {
	in  *inputs
	d   *deployment
	v   *validator
	rec *spanLog
	m   map[string]float64

	sample   []request
	searches []int // indexes into sample
	parent   []int // per sample request: span ID of the depth above
}

func (rp *replay) pred(r request) filter.Pred {
	if r.Band < 0 {
		return nil
	}
	return rp.in.bands[r.Band].Pred
}

// eachSearch runs fn for every sampled search inside a span called name
// (once per shard when perShard), chaining it under the previous depth.
func (rp *replay) eachSearch(name string, perShard bool, fn func(i int, r request, sh int)) {
	next := make([]int, len(rp.sample))
	shards := 1
	if perShard {
		shards = len(rp.d.Shards)
	}
	for _, i := range rp.searches {
		for sh := 0; sh < shards; sh++ {
			next[i] = rp.rec.time(name, i, rp.parent[i], func() { fn(i, rp.sample[i], sh) })
		}
	}
	rp.parent = next
}

// tracedReplay fills m with every per-layer metric the replay measures.
func tracedReplay(in *inputs, d *deployment, v *validator, rec *spanLog, tmpRoot string, m map[string]float64) error {
	rp := &replay{in: in, d: d, v: v, rec: rec, m: m}
	st := in.stream(in.clients)
	for i := 0; i < in.sc.TraceSample; i++ {
		r := st.Next()
		rp.sample = append(rp.sample, r)
		if r.Kind == opSearch {
			rp.searches = append(rp.searches, i)
		}
	}
	rp.parent = make([]int, len(rp.sample))
	if err := rp.frontDoor(); err != nil {
		return err
	}
	if d.Router != nil {
		if err := rp.clusterDepths(); err != nil {
			return err
		}
	}
	hits, err := rp.serveDepths()
	if err != nil {
		return err
	}
	if err := rp.baseScan(tmpRoot); err != nil {
		return err
	}
	rp.kernels()
	rp.wire(hits)
	if in.workload == wlFilteredFleet {
		rp.filterLayer()
	}
	return rp.oracle()
}

// frontDoor is depth 0: every sampled request through the front URL, as a
// client sends it. Writes go straight to the shard's WriteBatcher (that
// call is serve.write_us) and are then read back by their own vector.
func (rp *replay) frontDoor() error {
	c := newClient(rp.in, rp.v, rp.d.FrontURL, nil)
	defer c.p.close()
	ctx := context.Background()
	writer := rp.d.Shards[0].Writer
	rywTried, rywFound := 0, 0
	for i, r := range rp.sample {
		if r.Kind == opSearch {
			var o outcome
			rp.parent[i] = rp.rec.time(spClientPost, i, 0, func() { o = c.send(r) })
			if !o.ok {
				return fmt.Errorf("replay: front-door search %d failed", i)
			}
			continue
		}
		rp.v.sending(r)
		var err error
		rp.rec.time(spServeWrite, i, 0, func() {
			if r.Kind == opDelete {
				err = writer.Delete(ctx, r.ID)
			} else {
				err = writer.UpsertWithAttrs(ctx, r.ID, r.Vec, nil)
			}
		})
		if err != nil {
			return fmt.Errorf("replay: %v: %w", r, err)
		}
		rp.v.acked(r, time.Now())
		if r.Kind == opDelete {
			continue
		}
		o := c.send(request{Kind: opSearch, Vec: r.Vec, Band: -1})
		if !o.ok {
			return fmt.Errorf("replay: read-your-write search after %v failed", r)
		}
		rywTried++
		for _, id := range o.ids {
			if id == r.ID {
				rywFound++
				break
			}
		}
	}
	post := rp.rec.medianUs(spClientPost)
	if rp.d.Router == nil {
		rp.m["serve.http_us"] = post
	}
	if w := rp.rec.durationsUs(spServeWrite); len(w) > 0 {
		rp.m["serve.write_us"] = quantileSorted(w, 0.5)
		rp.m["serve.write_p99_us"] = quantileSorted(w, 0.99)
	}
	if rywTried > 0 {
		rp.m["mutable.ryw_rate"] = float64(rywFound) / float64(rywTried)
	}
	return nil
}

// clusterDepths are the router's two depths on a fleet: the in-process
// Router.SearchOpts, then a POST straight to every shard, whose recorded
// hits are merged once more with cluster.Merge.
func (rp *replay) clusterDepths() error {
	d, k := rp.d, rp.in.sc.K
	ctx := context.Background()
	var err error
	rp.eachSearch(spClusterSrch, false, func(i int, r request, _ int) {
		if _, e := d.Router.SearchOpts(ctx, r.Vec, cluster.SearchOptions{Filter: rp.in.filterExpr(r.Band)}); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("replay: Router.SearchOpts: %w", err)
	}

	p := newPoster()
	defer p.close()
	nsh := len(d.Shards)
	owns := func(id int64, shard int) bool { return cluster.Owner(id, nsh) == shard }
	var slowest, skew []float64
	next := make([]int, len(rp.sample))
	for _, i := range rp.searches {
		r := rp.sample[i]
		body := serve.SearchRequest{Vector: r.Vec, Filter: rp.in.filterExpr(r.Band)}
		hits := make([]cluster.ShardHits, nsh)
		lo, hi := 0.0, 0.0
		for sh, s := range d.Shards {
			start := time.Now()
			status, raw, e := p.post(s.URL+"/search", body)
			end := time.Now()
			if e != nil || status != 200 {
				return fmt.Errorf("replay: shard %d POST: status %d, %v", sh, status, e)
			}
			next[i] = rp.rec.add(spServeHTTP, i, rp.parent[i], start, end)
			var resp serve.SearchResponse
			if e := json.Unmarshal(raw, &resp); e != nil {
				return fmt.Errorf("replay: shard %d reply: %w", sh, e)
			}
			hits[sh] = cluster.ShardHits{Shard: sh, Cands: make([]topk.Candidate, len(resp.IDs))}
			for j := range resp.IDs {
				hits[sh].Cands[j] = topk.Candidate{ID: resp.IDs[j], Dist: resp.Distances[j]}
			}
			us := float64(end.Sub(start).Nanoseconds()) / 1e3
			if sh == 0 || us < lo {
				lo = us
			}
			if us > hi {
				hi = us
			}
		}
		slowest, skew = append(slowest, hi), append(skew, hi-lo)
		rp.rec.time(spClusterMerge, i, rp.parent[i], func() { cluster.Merge(k, hits, owns) })
	}
	rp.parent = next

	search := rp.rec.medianUs(spClusterSrch)
	rp.m["cluster.http_self_us"] = rp.rec.medianUs(spClientPost) - search
	rp.m["cluster.search_us"] = search
	rp.m["cluster.self_us"] = search - quantile(slowest, 0.5)
	rp.m["cluster.fanout_skew_us"] = quantile(skew, 0.5)
	rp.m["cluster.merge_us"] = rp.rec.medianUs(spClusterMerge)
	rp.m["serve.http_us"] = rp.rec.medianUs(spServeHTTP)
	return nil
}

// serveDepths are Server.SearchOpts and UpdatableIndex.Search on every
// shard, one row at a time and then in 32-row batches. It returns one
// reply's candidates for the wire-format timings.
func (rp *replay) serveDepths() ([]topk.Candidate, error) {
	d, k := rp.d, rp.in.sc.K
	ctx := context.Background()
	var err error
	rp.eachSearch(spServeSearch, true, func(_ int, r request, sh int) {
		if _, e := d.Shards[sh].Server.SearchOpts(ctx, r.Vec, serve.SearchOptions{Filter: rp.pred(r)}); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay: Server.SearchOpts: %w", err)
	}
	var hits []topk.Candidate
	dim := rp.in.ds.Spec.Dim
	rp.eachSearch(spMutSearch, true, func(_ int, r request, sh int) {
		res, e := d.Shards[sh].Index.Search(vecmath.WrapMatrix(r.Vec, 1, dim), mutable.SearchOpts{K: k, Pred: rp.pred(r)})
		if e != nil {
			err = e
			return
		}
		hits = res[0]
	})
	if err != nil {
		return nil, fmt.Errorf("replay: UpdatableIndex.Search: %w", err)
	}

	// 32-row batches, one band per batch (a batch shares its predicate).
	var perQuery []float64
	for _, batch := range rp.batches(32) {
		pred := rp.pred(rp.sample[batch.first])
		for _, s := range d.Shards {
			start := time.Now()
			if _, e := s.Index.Search(batch.rows, mutable.SearchOpts{K: k, Pred: pred}); e != nil {
				return nil, fmt.Errorf("replay: 32-row UpdatableIndex.Search: %w", e)
			}
			end := time.Now()
			rp.rec.add(spMutB32, batch.first, 0, start, end)
			perQuery = append(perQuery, float64(end.Sub(start).Nanoseconds())/1e3/float64(batch.rows.Rows))
		}
	}

	srch, mut := rp.rec.medianUs(spServeSearch), rp.rec.medianUs(spMutSearch)
	rp.m["serve.http_self_us"] = rp.m["serve.http_us"] - srch
	rp.m["serve.search_us"] = srch
	rp.m["serve.sched_self_us"] = srch - mut
	rp.m["mutable.search_us"] = mut
	rp.m["mutable.search_b32_us_per_query"] = quantile(perQuery, 0.5)
	return hits, nil
}

type rowBatch struct {
	first int // sample index of the batch's first row
	rows  *vecmath.Matrix
}

// batches packs the sampled searches into matrices of up to size rows,
// never mixing bands.
func (rp *replay) batches(size int) []rowBatch {
	dim := rp.in.ds.Spec.Dim
	byBand := map[int][]int{}
	var order []int
	for _, i := range rp.searches {
		b := rp.sample[i].Band
		if _, ok := byBand[b]; !ok {
			order = append(order, b)
		}
		byBand[b] = append(byBand[b], i)
	}
	var out []rowBatch
	for _, b := range order {
		idx := byBand[b]
		for lo := 0; lo < len(idx); lo += size {
			hi := min(lo+size, len(idx))
			rows := vecmath.NewMatrix(hi-lo, dim)
			for r, i := range idx[lo:hi] {
				rows.SetRow(r, rp.sample[i].Vec)
			}
			out = append(out, rowBatch{first: idx[lo], rows: rows})
		}
	}
	return out
}

// baseScan is the depth under UpdatableIndex.Search, on what the benchmark
// builds over each shard's retained epoch-0 index: the simulated-DPU
// engine (plain_fleet, mixed_single), the native kernels behind the
// filter planner (filtered_fleet), or a tier store (tiered_cold). The
// unfiltered native scan is timed on every workload as the common floor.
func (rp *replay) baseScan(tmpRoot string) error {
	in, d, sc := rp.in, rp.d, rp.in.sc
	native := func(s *shardDep, q []float32, k int, scratch *ivfpq.Scratch) ([]topk.Candidate, ivfpq.SearchStats) {
		return s.Base.Search(q, ivfpq.SearchOpts{NProbe: sc.NProbe, K: k, Quantized: true, Scratch: scratch})
	}
	scratch := ivfpq.NewScratch()
	codes := 0
	parent := rp.parent
	rp.eachSearch(spIvfpqSearch, true, func(_ int, r request, sh int) {
		_, st := native(d.Shards[sh], r.Vec, sc.K, scratch)
		codes += st.CodesScanned
	})
	nativeUs := rp.rec.medianUs(spIvfpqSearch)
	rp.m["ivfpq.search_us"] = nativeUs
	rp.m["ivfpq.codes_per_query"] = float64(codes) / float64(len(rp.searches)*len(d.Shards))

	// Mallocs per search with a caller-held Scratch: the whole-number
	// quotient, as testing.AllocsPerRun takes it, and the least of a few
	// short rounds, so a health probe or compactor tick allocating in the
	// background cannot pass for the kernel's doing.
	const rounds, runs = 5, 100
	q0 := rp.sample[rp.searches[0]].Vec
	least := uint64(math.MaxUint64)
	for round := 0; round < rounds; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			native(d.Shards[0], q0, sc.K, scratch)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/runs)
	}
	rp.m["ivfpq.allocs_per_search"] = float64(least)

	rp.parent = parent // the workload's own base scan hangs under mutable.search too
	var baseUs float64
	switch in.workload {
	case wlPlainFleet, wlMixedSingle:
		if err := rp.engineScan(native); err != nil {
			return err
		}
		baseUs = rp.m["core.searchbatch_us_per_query"]
	case wlFilteredFleet:
		rp.eachSearch(spIvfpqFilter, true, func(_ int, r request, sh int) {
			s := d.Shards[sh]
			store, pred := s.Index.AttrStore(), rp.pred(r)
			plan := filter.PlanSearch(store.EstimateTotal(pred, len(s.IDs)), sc.K, filter.ModeAuto)
			o := ivfpq.SearchOpts{NProbe: sc.NProbe, K: plan.FetchK, Quantized: true, Scratch: scratch}
			if plan.Mode == filter.ModePre {
				o.Allow = store.Eval(pred).Contains
			}
			cands, _ := s.Base.Search(r.Vec, o)
			if plan.Mode == filter.ModePost {
				for _, c := range cands {
					_ = store.Matches(pred, c.ID)
				}
			}
		})
		baseUs = rp.rec.medianUs(spIvfpqFilter)
	case wlTieredCold:
		if err := rp.tierScan(tmpRoot); err != nil {
			return err
		}
		baseUs = rp.m["tier.search_us"]
	}
	rp.m["mutable.self_us"] = rp.m["mutable.search_us"] - baseUs
	return nil
}

// engineScan times core.Engine.SearchBatch on engines built over the same
// indexes with the deployment's own config, checks every reply against the
// native quantized scan (ROADMAP item 2's golden test), and reads the
// simulated figures off one fixed batch.
func (rp *replay) engineScan(native func(*shardDep, []float32, int, *ivfpq.Scratch) ([]topk.Candidate, ivfpq.SearchStats)) error {
	d := rp.d
	dim := rp.in.ds.Spec.Dim
	engines := make([]*core.Engine, len(d.Shards))
	for sh, s := range d.Shards {
		eng, err := core.Build(s.Base, pim.NewSystem(s.MCfg.Spec), nil, s.MCfg.Engine)
		if err != nil {
			return fmt.Errorf("replay: core.Build: %w", err)
		}
		engines[sh] = eng
	}
	// Replies are checked after the timed pass, outside its spans.
	type reply struct {
		sh    int
		vec   []float32
		cands []topk.Candidate
	}
	var replies []reply
	var err error
	rp.eachSearch(spCoreBatch, true, func(_ int, r request, sh int) {
		br, e := engines[sh].SearchBatch(vecmath.WrapMatrix(r.Vec, 1, dim))
		if e != nil {
			err = e
			return
		}
		replies = append(replies, reply{sh, r.Vec, br.Results[0]})
	})
	if err != nil {
		return fmt.Errorf("replay: Engine.SearchBatch: %w", err)
	}
	mismatches := 0
	for _, rep := range replies {
		s := d.Shards[rep.sh]
		if want, _ := native(s, rep.vec, s.MCfg.Engine.K, nil); !equivalent(rep.cands, want) {
			mismatches++
		}
	}
	var perQuery []float64
	for _, batch := range rp.batches(32) {
		for _, eng := range engines {
			start := time.Now()
			if _, e := eng.SearchBatch(batch.rows); e != nil {
				return fmt.Errorf("replay: 32-row Engine.SearchBatch: %w", e)
			}
			end := time.Now()
			rp.rec.add(spCoreB32, batch.first, 0, start, end)
			perQuery = append(perQuery, float64(end.Sub(start).Nanoseconds())/1e3/float64(batch.rows.Rows))
		}
	}
	// Simulated time: the whole sample as one batch on shard 0's engine.
	// It depends on the inputs alone, so it repeats exactly for a seed.
	all := vecmath.NewMatrix(len(rp.searches), dim)
	for r, i := range rp.searches {
		all.SetRow(r, rp.sample[i].Vec)
	}
	br, e := engines[0].SearchBatch(all)
	if e != nil {
		return fmt.Errorf("replay: simulated batch: %w", e)
	}
	_, _, dist, _ := br.Timing.DPUShares()

	rp.m["core.searchbatch_us_per_query"] = rp.rec.medianUs(spCoreBatch)
	rp.m["core.searchbatch_b32_us_per_query"] = quantile(perQuery, 0.5)
	rp.m["core.host_over_native"] = rp.rec.medianUs(spCoreBatch) / rp.m["ivfpq.search_us"]
	rp.m["core.native_mismatches"] = float64(mismatches)
	rp.m["core.sim_qps"] = br.QPS
	rp.m["core.sim_dist_share"] = dist
	rp.m["core.sim_balance"] = br.Balance
	return nil
}

// equivalent is the repository's cross-backend equality (core's own tests
// use it): the same distance at every rank, and every id strictly inside
// the boundary distance present on both sides; ids tied at the boundary
// may differ.
func equivalent(a, b []topk.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	inB := make(map[int64]bool, len(b))
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
		inB[b[i].ID] = true
	}
	boundary := a[len(a)-1].Dist
	for _, c := range a {
		if c.Dist < boundary && !inB[c.ID] {
			return false
		}
	}
	return true
}

// tierScan times tier.Index.Search on a store the benchmark builds over
// an image of the same index, sized and tuned like the deployment's.
func (rp *replay) tierScan(tmpRoot string) error {
	s, sc := rp.d.Shards[0], rp.in.sc
	f, err := os.CreateTemp(filepath.Clean(tmpRoot), "layer-*.img")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	size, err := s.Base.WriteImage(f)
	if err != nil {
		return fmt.Errorf("replay: WriteImage: %w", err)
	}
	img, err := ivfpq.OpenImage(f, size)
	if err != nil {
		return fmt.Errorf("replay: OpenImage: %w", err)
	}
	store := tier.NewStore(tier.NewImageSource(img), s.MCfg.Tier.Store)
	defer store.Close()
	store.Rebalance()
	tix, err := tier.NewIndex(s.Base, store)
	if err != nil {
		return err
	}
	opts := ivfpq.SearchOpts{NProbe: sc.NProbe, K: sc.K, Quantized: true}
	// One untimed pass so the hot set reflects the sample's clusters, as
	// the deployment's reflects its traffic.
	for _, i := range rp.searches {
		if _, _, err := tix.Search(rp.sample[i].Vec, opts); err != nil {
			return fmt.Errorf("replay: tier warm pass: %w", err)
		}
	}
	store.Rebalance()
	rp.eachSearch(spTierSearch, false, func(_ int, r request, _ int) {
		if _, _, e := tix.Search(r.Vec, opts); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("replay: tier.Index.Search: %w", err)
	}
	rp.m["tier.search_us"] = rp.rec.medianUs(spTierSearch)
	return nil
}

// kernels times the pieces of one native scan on shard 0: the coarse
// probe, one probe's LUT build, and the ADC scan kernels over a fixed
// 1 MiB slab of codes.
func (rp *replay) kernels() {
	ix, sc := rp.d.Shards[0].Base, rp.in.sc
	m := ix.PQ.M
	var probes []int32
	var pdists []float32
	resid := make([]float32, ix.Dim)
	lut := make(pq.LUT, m*pq.CodebookSize)
	qtab := make([]uint16, m*pq.CodebookSize)
	rp.eachSearch(spIvfProbe, false, func(_ int, r request, _ int) {
		probes, pdists = ix.Coarse.ProbeInto(probes, pdists, r.Vec, sc.NProbe)
	})
	rp.eachSearch(spLUTBuild, false, func(_ int, r request, _ int) {
		ix.Coarse.Residual(resid, r.Vec, probes[0])
		ix.PQ.BuildLUTInto(lut, resid)
		pq.QuantizeWithScaleInto(qtab, lut, ix.QScale)
	})
	rp.m["ivf.probe_us"] = rp.rec.medianUs(spIvfProbe)
	rp.m["pq.lut_build_us"] = rp.rec.medianUs(spLUTBuild)

	const slabBytes = 1 << 20
	n := slabBytes / m
	rng := xrand.New(subSeed(rp.in.seed, purposeSlab))
	slab := make([]uint8, n*m)
	for i := range slab {
		slab[i] = uint8(rng.Uint32())
	}
	dists := make([]uint32, pq.ScanBlock)
	full := func() int {
		for base := 0; base+pq.ScanBlock <= n; base += pq.ScanBlock {
			pq.ScanQDists(dists, qtab, slab[base*m:(base+pq.ScanBlock)*m], m)
		}
		return n * m
	}
	rp.m["pq.scan_gbps"] = bestGBps(full)
	for _, g := range []struct {
		name  string
		share float64
	}{{"pq.scan_at_gbps_1pct", 0.01}, {"pq.scan_at_gbps_50pct", 0.5}} {
		// Per block, the positions an allow-bitmap of this selectivity
		// would pass; bytes counted are the codes gathered.
		var blocks [][]int32
		gathered := 0
		for base := 0; base+pq.ScanBlock <= n; base += pq.ScanBlock {
			var at []int32
			for i := 0; i < pq.ScanBlock; i++ {
				if rng.Float64() < g.share {
					at = append(at, int32(base+i))
				}
			}
			blocks = append(blocks, at)
			gathered += len(at) * m
		}
		rp.m[g.name] = bestGBps(func() int {
			for _, at := range blocks {
				pq.ScanQDistsAt(dists, qtab, slab, m, at)
			}
			return gathered
		})
	}
}

// bestGBps runs fn (which reports the bytes it scanned) a few times and
// returns the best rate: the kernel's speed, not the scheduler's mood.
func bestGBps(fn func() int) float64 {
	best := 0.0
	for i := 0; i < 7; i++ {
		start := time.Now()
		b := fn()
		if r := float64(b) / time.Since(start).Seconds() / 1e9; r > best {
			best = r
		}
	}
	return best
}

// wire times the JSON both ways on real payloads: one sampled request
// through serve.SearchRequest, one reply through serve.NewSearchResponse.
func (rp *replay) wire(hits []topk.Candidate) {
	reqBytes, respBytes := 0, 0
	for _, i := range rp.searches {
		r := rp.sample[i]
		body, _ := json.Marshal(serve.SearchRequest{Vector: r.Vec, Filter: rp.in.filterExpr(r.Band)})
		reqBytes += len(body)
		rp.rec.time(spJSONDecode, i, 0, func() {
			var req serve.SearchRequest
			_ = json.Unmarshal(body, &req)
		})
		rp.rec.time(spJSONEncode, i, 0, func() {
			out, _ := json.Marshal(serve.NewSearchResponse(hits))
			respBytes += len(out)
		})
	}
	n := float64(len(rp.searches))
	rp.m["serve.json_decode_us"] = rp.rec.medianUs(spJSONDecode)
	rp.m["serve.json_encode_us"] = rp.rec.medianUs(spJSONEncode)
	rp.m["serve.request_bytes"] = float64(reqBytes) / n
	rp.m["serve.response_bytes"] = float64(respBytes) / n
}

// filterLayer times the two filter-only steps of a filtered request:
// parsing the expression and evaluating it to an allow-bitmap.
func (rp *replay) filterLayer() {
	store := rp.d.Shards[0].Index.AttrStore()
	for _, i := range rp.searches {
		r := rp.sample[i]
		rp.rec.time(spFilterParse, i, 0, func() { _, _ = filter.Parse(rp.in.filterExpr(r.Band)) })
		rp.rec.time(spFilterEval, i, 0, func() { store.Eval(rp.pred(r)) })
	}
	rp.m["filter.parse_us"] = rp.rec.medianUs(spFilterParse)
	rp.m["filter.eval_us"] = rp.rec.medianUs(spFilterEval)
}

// oracle compares live answers with SearchOracle's exact full-width scan
// of the same snapshot: the share of the oracle's top-k the live path
// returned.
func (rp *replay) oracle() error {
	k, dim := rp.in.sc.K, rp.in.ds.Spec.Dim
	want, found := 0, 0
	for n, i := range rp.searches {
		if n == rp.in.sc.OracleCheck {
			break
		}
		r := rp.sample[i]
		for _, s := range rp.d.Shards {
			exact, err := s.Index.SearchOracle(r.Vec, k, rp.pred(r))
			if err != nil {
				return fmt.Errorf("replay: SearchOracle: %w", err)
			}
			live, err := s.Index.Search(vecmath.WrapMatrix(r.Vec, 1, dim), mutable.SearchOpts{K: k, Pred: rp.pred(r)})
			if err != nil {
				return fmt.Errorf("replay: oracle-side Search: %w", err)
			}
			got := make(map[int64]bool, len(live[0]))
			for _, c := range live[0] {
				got[c.ID] = true
			}
			for _, c := range exact.Truth {
				want++
				if got[c.ID] {
					found++
				}
			}
		}
	}
	if want > 0 {
		rp.m["mutable.oracle_recall"] = float64(found) / float64(want)
	}
	return nil
}
