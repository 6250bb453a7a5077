package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/mutable"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/vecmath"
)

// runOpts selects what one run of one workload does.
type runOpts struct {
	Workload string
	Seed     uint64
	Seconds  float64 // the measured, untraced window
	// E2E measures the end-to-end metrics (recall and its ground truth
	// included); Trace adds the traced window, the replay and the
	// per-layer metrics. The driver's --trace 0 / --trace 1 runs set one
	// each, with the load windows of a traced run halved so both kinds of
	// run take about as long; a full report sets both.
	E2E, Trace bool
	Scale      scale
	Clients    int
	TmpRoot    string
}

// runResult is one run's numbers.
type runResult struct {
	Workload  string
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Attempted int
	Failed    int
	Searches  int // samples behind latency_p50_ms / latency_p99_ms
	Writes    int // samples behind write_p50_ms
	Budget    []budgetRow
	Spans     *spanLog
	Phases    string // where the run's wall time went
	Whole     string // the measured window's rates and latencies, not sliced
}

// budgetRow is one line of the per-layer latency budget.
type budgetRow struct {
	Layer  string
	SelfUs float64
	Share  float64 // of the loaded latency_p50_ms
}

// correct reports whether every reply validated and every must-be-zero
// counter this run measured is zero.
func (r *runResult) correct() bool {
	if r.Failed > 0 {
		return false
	}
	for _, name := range mustBeZero {
		if r.EndToEnd[name] > 0 || r.PerLayer[name] > 0 {
			return false
		}
	}
	return true
}

// counters is a snapshot of every layer's public Stats(), taken on either
// side of the measured window.
type counters struct {
	serve  []serve.Stats
	mut    []mutable.Stats
	tier   *tier.Stats
	router cluster.RouterStats
	filtN  uint64
	preN   uint64
	mem    runtime.MemStats
	cpuS   float64
}

func snapshot(d *deployment) counters {
	var c counters
	for _, s := range d.Shards {
		c.serve = append(c.serve, s.Server.Stats())
		c.mut = append(c.mut, s.Index.Stats())
		if fs := s.Index.FilterStats(); fs != nil {
			c.filtN += fs.Filtered
			c.preN += fs.PreDecisions
		}
	}
	c.tier = d.Shards[0].Index.TierStats()
	if d.Router != nil {
		c.router = d.Router.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return c
}

// counterMetrics turns the before/after snapshots of window w into the
// per-layer metrics that are counters.
func counterMetrics(m map[string]float64, before, after counters, w window) {
	ops := math.Max(float64(w.ok()), 1)
	var batches, batched, shed, expired, pending, compactions uint64
	var busy, maxPause float64
	for i := range after.serve {
		batches += after.serve[i].Batches - before.serve[i].Batches
		batched += after.serve[i].BatchedQ - before.serve[i].BatchedQ
		shed += after.serve[i].Shed - before.serve[i].Shed
		expired += after.serve[i].Expired - before.serve[i].Expired
		pending += uint64(after.mut[i].PendingLog)
		compactions += after.mut[i].Compactions - before.mut[i].Compactions
		busy += after.mut[i].SumCompactSecs - before.mut[i].SumCompactSecs
		maxPause = math.Max(maxPause, after.mut[i].MaxCompactSecs)
	}
	if batches > 0 {
		m["serve.batch_mean"] = float64(batched) / float64(batches)
	}
	m["serve.shed"] = float64(shed)
	m["serve.expired"] = float64(expired)
	m["mutable.overlay_pending"] = float64(pending)
	m["mutable.compactions"] = float64(compactions)
	m["mutable.compaction_busy_share"] = busy / (w.Seconds * float64(len(after.serve)))
	m["mutable.max_pause_ms"] = maxPause * 1e3
	m["cluster.degraded"] = float64(after.router.Degraded - before.router.Degraded)
	if n := after.filtN - before.filtN; n > 0 {
		m["filter.pre_share"] = float64(after.preN-before.preN) / float64(n)
	}
	if a := after.tier; a != nil {
		b := *before.tier
		if after.mut[0].Epoch != before.mut[0].Epoch {
			b = tier.Stats{} // a compaction replaced the store, counters and all, mid-window
		}
		if visits := float64(a.HotHits - b.HotHits + a.HotMisses - b.HotMisses); visits > 0 {
			m["tier.hit_rate"] = float64(a.HotHits-b.HotHits) / visits
		}
		m["tier.cold_bytes_per_query"] = float64(a.ColdBytes-b.ColdBytes) / math.Max(float64(len(w.SearchMs)), 1)
		if secs := a.ColdSeconds - b.ColdSeconds; secs > 0 {
			m["tier.cold_gbps"] = float64(a.ColdBytes-b.ColdBytes) / secs / 1e9
		}
		if issued := a.PrefetchIssued - b.PrefetchIssued; issued > 0 {
			m["tier.prefetch_hit_share"] = float64(a.PrefetchHits-b.PrefetchHits) / float64(issued)
		}
		m["tier.skipped_clusters"] = float64(a.SkippedClusters - b.SkippedClusters)
	}
	m["process.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	m["process.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	m["process.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["process.cpu_s_per_kop"] = (after.cpuS - before.cpuS) / (ops / 1e3)
}

// runWorkload generates one workload's inputs, deploys, loads, checks and
// (optionally) traces it.
func runWorkload(o runOpts) (_ *runResult, err error) {
	res := &runResult{Workload: o.Workload, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
	mark := time.Now()
	lap := func(phase string) {
		res.Phases += fmt.Sprintf(" %s %.1fs", phase, time.Since(mark).Seconds())
		mark = time.Now()
	}
	in, err := generate(o.Workload, o.Seed, o.Scale, o.Clients)
	if err != nil {
		return nil, err
	}
	lap("generate")
	d, err := deploy(in, o.TmpRoot)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	lap("setup")
	// The corpus and the tag maps belong to the generator; the program has
	// its own copies by now. Dropping them lets heap_mb show the program.
	in.base, in.attrs = nil, nil

	v := newValidator(in)
	clients := make([]*client, o.Clients)
	for c := range clients {
		clients[c] = newClient(in, v, d.FrontURL, in.stream(c))
		defer clients[c].p.close()
	}

	warm, err := warmUp(in, d, clients)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", o.Workload+":", err)
	}
	lap("warm-up")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)

	seconds := o.Seconds
	if o.Trace && !o.E2E {
		seconds /= 2
	}
	before := snapshot(d)
	win := runWindow(clients, lasting(seconds), nil)
	after := snapshot(d)
	lap("window")
	if len(win.SearchMs) == 0 {
		return nil, fmt.Errorf("%s: no search completed in the measured window", o.Workload)
	}
	res.Attempted = warm.Attempted + win.Attempted
	res.Failed = warm.Failed + win.Failed
	res.Searches, res.Writes = len(win.SearchMs), len(win.WriteMs)
	qps, p50, p99, writeP50 := win.sliced()
	res.Whole = fmt.Sprintf("qps %.1f, p50 %.3f ms, p99 %.3f ms", float64(win.ok())/win.Seconds,
		quantile(win.SearchMs, 0.5), quantile(win.SearchMs, 0.99))

	var traced window
	if o.Trace {
		res.Spans = newSpanLog()
		traced = runWindow(clients, lasting(o.Seconds/2), res.Spans)
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		lap("traced window")
	}

	if o.E2E {
		recall, attempted, failed, err := measureRecall(in, d, v)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
		e := res.EndToEnd
		e["qps"] = qps
		e["latency_p50_ms"] = p50
		e["latency_p99_ms"] = p99
		e["write_p50_ms"] = writeP50
		e["recall_at_10"] = recall
		e["setup_s"] = d.SetupS
		e["heap_mb"] = heapMB
		lap("recall")
	}

	if o.Trace {
		m := res.PerLayer
		counterMetrics(m, before, after, win)
		m["trace.overhead_pct"] = 100 * (1 - (float64(traced.ok())/traced.Seconds)/(float64(win.ok())/win.Seconds))
		m["write_p50_ms"] = writeP50
		if err := tracedReplay(in, d, v, res.Spans, o.TmpRoot, m); err != nil {
			return nil, err
		}
		m["filter.violations"] = float64(v.count(vPredicate))
		m["mutable.tombstone_leaks"] = float64(v.count(vTombstone))
		res.Budget = budget(in.workload, in.sc.NProbe, m, res.Spans.medianUs(spClientPost), p50)
		lap("replay")
	}
	rate := float64(res.Failed) / float64(res.Attempted)
	if o.E2E {
		res.EndToEnd["error_rate"] = rate
	}
	if o.Trace {
		res.PerLayer["error_rate"] = rate
	}
	return res, nil
}

// measureRecall asks the held-out queries through the front door and
// scores them against brute force over what the deployment should hold:
// the corpus, the band's members on filtered_fleet, the model of
// acknowledged writes on mixed_single (nothing is in flight by now).
func measureRecall(in *inputs, d *deployment, v *validator) (recall float64, attempted, failed int, err error) {
	queries := in.heldOut()
	k := in.sc.K
	got := make([][]int64, queries.Rows)
	bandOf := func(qi int) int {
		if in.workload != wlFilteredFleet {
			return -1
		}
		return qi % len(in.bands)
	}
	// The same C closed-loop callers as the load windows, each asking its
	// share of the queries.
	fails := make([]int, in.clients)
	var wg sync.WaitGroup
	for w := 0; w < in.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(in, v, d.FrontURL, nil)
			defer c.p.close()
			for qi := w; qi < queries.Rows; qi += in.clients {
				o := c.send(request{Kind: opSearch, Vec: queries.Row(qi), Band: bandOf(qi)})
				if !o.ok {
					fails[w]++
					continue
				}
				got[qi] = append([]int64(nil), o.ids...)
			}
		}(w)
	}
	wg.Wait()
	attempted = queries.Rows
	for _, n := range fails {
		failed += n
	}

	_, base, _ := genVectors(in.workload, in.seed, in.sc)
	byBand := map[int][]int{}
	for qi := 0; qi < queries.Rows; qi++ {
		byBand[bandOf(qi)] = append(byBand[bandOf(qi)], qi)
	}
	total := 0.0
	for band, qis := range byBand {
		corpus, ids := base, []int64(nil) // nil ids: row index is the id
		switch {
		case in.workload == wlMixedSingle:
			corpus, ids = v.liveCorpus(base)
		case band >= 0:
			for id, member := range in.member[band] {
				if member {
					ids = append(ids, int64(id))
				}
			}
			corpus = vecmath.NewMatrix(len(ids), base.Dim)
			for row, id := range ids {
				corpus.SetRow(row, base.Row(int(id)))
			}
		}
		sub := vecmath.NewMatrix(len(qis), base.Dim)
		for r, qi := range qis {
			sub.SetRow(r, queries.Row(qi))
		}
		truth := dataset.GroundTruth(corpus, sub, k)
		for r, qi := range qis {
			want := make(map[int64]bool, k)
			for _, cand := range truth[r] {
				id := cand.ID
				if ids != nil {
					id = ids[id]
				}
				want[id] = true
			}
			hit := 0
			for _, id := range got[qi] {
				if want[id] {
					hit++
				}
			}
			if len(want) > 0 {
				total += float64(hit) / float64(len(want))
			}
		}
	}
	return total / float64(queries.Rows), attempted, failed, nil
}

// budget lays the replay's self times out as the per-layer latency budget:
// the rows sum to the sequential front-door median, and the last row is
// what the loaded p50 adds on top of it.
func budget(wl string, nprobe int, m map[string]float64, sequentialUs, loadedP50Ms float64) []budgetRow {
	var rows []budgetRow
	add := func(layer string, us float64) { rows = append(rows, budgetRow{Layer: layer, SelfUs: us}) }
	if shardsOf(wl) > 1 {
		add("cluster: client<->router HTTP+JSON", m["cluster.http_self_us"])
		add("cluster: fan-out, hedge timers, merge", m["cluster.self_us"])
		slowest := m["cluster.search_us"] - m["cluster.self_us"]
		add("cluster: waiting for the slower shard", slowest-m["serve.http_us"])
	}
	add("serve: net/http + JSON", m["serve.http_self_us"])
	add("serve: admission, linger, dispatch, reply", m["serve.sched_self_us"])
	add("mutable: probe, overlay, epoch check, merge", m["mutable.self_us"])
	base := m["mutable.search_us"] - m["mutable.self_us"]
	switch wl {
	case wlPlainFleet, wlMixedSingle:
		add("core/pim: Engine.SearchBatch (host time)", base)
	case wlTieredCold:
		add("tier+ivfpq: tier.Index.Search", base)
	default:
		probe, lut := m["ivf.probe_us"], float64(nprobe)*m["pq.lut_build_us"]
		add("ivf: coarse probe", probe)
		add(fmt.Sprintf("pq: LUT build x%d probes (upper bound)", nprobe), math.Min(lut, base-probe))
		add("ivfpq+filter: scan, allow-bitmap, top-k", math.Max(base-probe-lut, 0))
	}
	add("queueing and contention under load", loadedP50Ms*1e3-sequentialUs)
	for i := range rows {
		rows[i].Share = rows[i].SelfUs / (loadedP50Ms * 1e3)
	}
	return rows
}
