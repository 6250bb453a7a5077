// Distributed serving walkthrough: a scatter-gather router over three
// live shards, all in one process. The corpus is hash-partitioned across
// the shards by the same stable ID hash the router routes writes with;
// each shard is a full mutable UpANNS deployment (own trained index)
// behind the real shard HTTP surface on a loopback listener. Six phases demonstrate the cluster mechanics end to end:
//
//  1. recall parity — queries fanned out to 3 shards and merged in the
//     float domain answer within 1% of a single-host deployment of the
//     same corpus;
//
//  2. write routing — upserts and deletes sent to the router land on
//     exactly the shard that owns each id, so every shard's mutable
//     overlay and compaction keep working untouched;
//
//  3. kill drill — one shard is killed mid-run; queries keep answering
//     with zero client-visible errors at degraded recall (the dead
//     shard's third of the corpus is gone, availability is not), the
//     dead shard's circuit breaker opens, and the health prober excludes
//     it;
//
//  4. observability — a query carrying a traceparent header comes back
//     with a distributed span tree (router fanout, grafted shard-side
//     dispatch stages), and /metrics on the router and a surviving shard
//     parses as Prometheus text with a nonzero achieved-scan-GB/s gauge;
//
//  5. health plane — the router's /slo rollup shows the kill drill
//     burning the integrity error budget, the killed shard restarts and
//     the prober re-admits it (a shard_rejoin flight event after the
//     shard_lost), the /debug/bundle postmortem artifact unpacks with
//     the whole story inside, and a shard's /debug/costly heat ring
//     attributes the drill's per-query bytes;
//
//  6. quality plane — every shard shadow-samples answered queries
//     against its exact oracle; through a second kill drill the fleet
//     /quality rollup drops the dead shard while the survivors' recall
//     estimates hold (the client-visible recall dip is lost capacity,
//     not a quality regression — the OPERATIONS.md triage distinction),
//     and on rejoin the dip clears and the rollup regains the shard.
//
// The demo exits non-zero if any acceptance shape breaks, so CI runs it
// as a smoke test:
//
//	go run ./examples/cluster            # full size
//	go run ./examples/cluster -n 6000 -queries 40   # CI scale
package main

import (
	"archive/tar"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/ivfpq"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

func main() {
	var (
		n       = flag.Int("n", 24000, "base vectors")
		queries = flag.Int("queries", 100, "queries per phase")
		shards  = flag.Int("shards", 3, "shard count")
		nlist   = flag.Int("ivf", 32, "IVF clusters (per shard and single-host)")
		nprobe  = flag.Int("nprobe", 8, "clusters probed per query")
		k       = flag.Int("k", 10, "neighbors per query")
		seed    = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	fmt.Printf("cluster demo: %d SIFT-like vectors, %d shards, %d queries, k=%d\n",
		*n, *shards, *queries, *k)
	ds := dataset.Generate(dataset.SIFT1B, *n, *seed)
	qs := ds.Queries(*queries, *seed+7)
	truth := dataset.GroundTruth(ds.Vectors, qs, *k)

	// ---- Single-host baseline ----
	single := ivfpq.Train(ds.Vectors, ivfpq.Params{NList: *nlist, M: dataset.SIFT1B.M, Seed: *seed, TrainSub: 8192})
	single.Add(ds.Vectors, 0)
	singleRes := make([][]topk.Candidate, qs.Rows)
	for qi := range singleRes {
		singleRes[qi], _ = single.Search(qs.Row(qi), ivfpq.SearchOpts{NProbe: *nprobe, K: *k, Quantized: true})
	}
	recallSingle := dataset.Recall(singleRes, truth)
	fmt.Printf("single-host recall@%d: %.4f\n\n", *k, recallSingle)

	// ---- Boot the shard fleet and the router ----
	fmt.Printf("booting %d shards (hash-partitioned, mutable, HTTP on loopback)...\n", *shards)
	fleet, err := cluster.StartLocalShards(ds.Vectors, cluster.LocalOptions{
		Shards: *shards, NList: *nlist, NProbe: *nprobe, K: *k, Seed: *seed,
		Trace: true, Obs: true,
		// One in 8 answered queries is re-run against the exact oracle;
		// phase 6 reads the resulting /quality rollup through a kill drill.
		QualitySample: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, s := range fleet {
			s.Close()
		}
	}()
	for _, s := range fleet {
		fmt.Printf("  shard %s: %d vectors at %s\n", s.ID, len(s.OwnedIDs), s.URL)
	}
	// Generous probe/search budgets: on a loaded CI machine a tight
	// timeout would transiently exclude a healthy shard and make the
	// recall phases flaky.
	router, err := cluster.New(cluster.ShardURLs(fleet), cluster.Config{
		K:               *k,
		SearchTimeout:   30 * time.Second,
		HealthInterval:  100 * time.Millisecond,
		HealthTimeout:   5 * time.Second,
		BreakerCooldown: 500 * time.Millisecond,
		Tracer:          obs.NewTracer(obs.TracerConfig{}),
		// The integrity objective is what a kill drill burns: degraded
		// fanouts answer 200, so without it the drill would be invisible
		// to the SLO plane.
		SLO: obs.NewSLOTracker(obs.SLOConfig{Name: "router", IntegrityTarget: 0.99}),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	// ---- Phase 1: recall parity ----
	fmt.Println("\nphase 1: scatter-gather recall parity")
	routed, errs := cleanSearchAll(router, qs)
	if errs > 0 {
		log.Fatalf("phase 1: %d of %d routed queries failed", errs, *queries)
	}
	recallRouter := dataset.Recall(routed, truth)
	fmt.Printf("  router recall@%d: %.4f (single-host %.4f, delta %+.4f)\n",
		*k, recallRouter, recallSingle, recallRouter-recallSingle)
	if recallRouter < recallSingle-0.01 {
		log.Fatalf("phase 1: router recall %.4f more than 1%% below single-host %.4f",
			recallRouter, recallSingle)
	}

	// ---- Phase 2: write routing by ID hash ----
	fmt.Println("\nphase 2: writes route to the owning shard")
	const writes = 30
	fresh := dataset.Generate(dataset.SIFT1B, writes, *seed+101).Vectors
	for i := 0; i < writes; i++ {
		id := int64(*n + i)
		if err := router.Upsert(context.Background(), id, fresh.Row(i)); err != nil {
			log.Fatalf("phase 2: upsert %d: %v", id, err)
		}
	}
	perShard := writeCounts(router)
	fmt.Printf("  %d upserts landed as %v across shards (owner-hash routing)\n", writes, perShard)
	for i := 0; i < writes; i++ {
		if err := router.Delete(context.Background(), int64(*n+i)); err != nil {
			log.Fatalf("phase 2: delete %d: %v", *n+i, err)
		}
	}
	fmt.Println("  deletes routed back; corpus restored via tombstones")

	// ---- Phase 3: kill one shard mid-run ----
	fmt.Println("\nphase 3: kill drill — one shard dies mid-run")
	half := *queries / 2
	preKill, errs := cleanSearchAll(router, matrixHead(qs, half))
	if errs > 0 {
		log.Fatalf("phase 3: %d pre-kill queries failed", errs)
	}
	victim := fleet[len(fleet)-1]
	victim.Kill()
	fmt.Printf("  killed shard %s (%d vectors gone)\n", victim.ID, len(victim.OwnedIDs))
	postKill, errs := searchAll(router, qs)
	if errs > 0 {
		log.Fatalf("phase 3: %d of %d queries failed after the kill — degraded serving must not error", errs, *queries)
	}
	// The queries above may finish inside one health interval; phase 5's
	// flight record needs the prober to have seen the outage.
	deadline := time.Now().Add(10 * time.Second)
	for router.HealthyShards() == router.NumShards() {
		if time.Now().After(deadline) {
			log.Fatalf("phase 3: prober did not notice shard %s dying", victim.ID)
		}
		time.Sleep(50 * time.Millisecond)
	}
	recallPre := dataset.Recall(preKill, truth[:half])
	recallPost := dataset.Recall(postKill, truth)
	fmt.Printf("  recall@%d: %.4f before kill -> %.4f after (no errors, %d/%d shards)\n",
		*k, recallPre, recallPost, router.HealthyShards(), router.NumShards())
	if recallPost >= recallPre {
		fmt.Println("  (note: degraded recall did not drop — tiny corpus, lucky partition)")
	}
	lost := float64(len(victim.OwnedIDs)) / float64(*n)
	if floor := recallPre * (1 - lost) * 0.8; recallPost < floor {
		log.Fatalf("phase 3: post-kill recall %.4f below plausibility floor %.4f", recallPost, floor)
	}

	// ---- Phase 4: observability — /metrics scrape + a distributed trace ----
	fmt.Println("\nphase 4: observability — /metrics scrape and a distributed trace")
	front := httptest.NewServer(cluster.NewHandler(router))
	defer front.Close()
	req, err := http.NewRequest(http.MethodPost, front.URL+"/search",
		strings.NewReader(fmt.Sprintf(`{"vector": %s}`, vectorJSON(qs.Row(0)))))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-000000000000000000000000000c1e47-0000000000000001-01")
	resp, err := front.Client().Do(req)
	if err != nil {
		log.Fatalf("phase 4: traced search: %v", err)
	}
	var traced serve.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if traced.Trace == nil {
		log.Fatal("phase 4: traced fanout carried no span-tree annotation")
	}
	shardSpans := countSpans(traced.Trace, "shard.request")
	dispatchSpans := countSpans(traced.Trace, "serve.dispatch")
	fmt.Printf("  distributed trace: root %s, %d shard spans, %d grafted dispatch spans\n",
		traced.Trace.Name, shardSpans, dispatchSpans)
	if shardSpans < 1 || dispatchSpans < 1 {
		log.Fatal("phase 4: trace is missing shard-side spans (graft broken)")
	}

	routerMetrics := scrapeMetrics(front.URL + "/metrics")
	fmt.Printf("  router /metrics: %d samples, %d searches\n",
		len(routerMetrics), int(routerMetrics["upanns_router_searches_total"]))
	if routerMetrics["upanns_router_searches_total"] <= 0 {
		log.Fatal("phase 4: router metrics report no searches")
	}
	shardMetrics := scrapeMetrics(fleet[0].URL + "/metrics")
	gbps := shardMetrics["upanns_kernel_scan_gbps"]
	roof := shardMetrics["upanns_kernel_roofline_gbps"]
	fmt.Printf("  shard s0 /metrics: %d samples, ADC scan %.2f GB/s achieved (roofline %.2f GB/s)\n",
		len(shardMetrics), gbps, roof)
	if gbps <= 0 || roof <= 0 {
		log.Fatalf("phase 4: kernel bandwidth gauges achieved=%.3f roofline=%.3f, want both > 0", gbps, roof)
	}

	// ---- Phase 5: health plane — /slo burn, shard rejoin, postmortem bundle ----
	fmt.Println("\nphase 5: health plane — /slo burn rate, shard rejoin, postmortem bundle")
	var fleetSLO cluster.FleetSLO
	fetchJSON(front.URL+"/slo", &fleetSLO)
	integ := findObjective(fleetSLO.Router, "integrity")
	fmt.Printf("  fleet /slo: state %q, router integrity burn fast %.1f / slow %.1f, %d shard snapshots\n",
		fleetSLO.State, integ.FastBurn, integ.SlowBurn, len(fleetSLO.Shards))
	if fleetSLO.State == "ok" || integ.FastBurn <= 0 {
		log.Fatal("phase 5: the kill drill burned no visible SLO budget")
	}
	if len(fleetSLO.Shards) == 0 {
		log.Fatal("phase 5: fleet rollup gathered no shard snapshots")
	}

	if err := victim.Restart(); err != nil {
		log.Fatalf("phase 5: restarting shard %s: %v", victim.ID, err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for router.HealthyShards() < router.NumShards() {
		if time.Now().After(deadline) {
			log.Fatalf("phase 5: shard %s not re-admitted within 10s of restarting", victim.ID)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("  shard %s restarted and re-admitted (%d/%d healthy)\n",
		victim.ID, router.HealthyShards(), router.NumShards())

	files := fetchBundle(front.URL + "/debug/bundle")
	for _, name := range []string{"flight.json", "metrics.txt", "slo.json", "stats.json", "traces.json"} {
		if _, ok := files[name]; !ok {
			log.Fatalf("phase 5: postmortem bundle is missing %s", name)
		}
	}
	var events []obs.FlightEvent
	if err := json.Unmarshal(files["flight.json"], &events); err != nil {
		log.Fatalf("phase 5: bundle flight.json: %v", err)
	}
	var lostSeq, rejoinSeq uint64
	for _, ev := range events {
		if ev.Attrs["url"] != victim.URL {
			continue
		}
		switch ev.Kind {
		case "shard_lost":
			lostSeq = ev.Seq
		case "shard_rejoin":
			if ev.Seq > rejoinSeq {
				rejoinSeq = ev.Seq
			}
		}
	}
	fmt.Printf("  postmortem bundle: %d sections, %d flight events (shard_lost seq %d -> shard_rejoin seq %d)\n",
		len(files), len(events), lostSeq, rejoinSeq)
	if lostSeq == 0 || rejoinSeq <= lostSeq {
		log.Fatal("phase 5: flight record does not tell the kill/rejoin story")
	}

	var costly obs.CostlyPayload
	fetchJSON(fleet[0].URL+"/debug/costly", &costly)
	if costly.Queries == 0 || costly.TotalBytes == 0 || len(costly.Top) == 0 {
		log.Fatalf("phase 5: shard s0 cost ring is empty (%d queries, %d bytes)", costly.Queries, costly.TotalBytes)
	}
	fmt.Printf("  shard s0 /debug/costly: %d queries, %.1f MB moved, hottest query %.1f KB\n",
		costly.Queries, float64(costly.TotalBytes)/1e6, float64(costly.Top[0].TotalBytes)/1e3)

	// ---- Phase 6: quality plane — shadow-oracle /quality through a kill drill ----
	fmt.Println("\nphase 6: quality plane — shadow-oracle recall estimates through a second kill drill")
	drainShadows := func() {
		for _, s := range fleet {
			if !s.Quality.Drain(30 * time.Second) {
				log.Fatalf("phase 6: shard %s shadow queue did not drain", s.ID)
			}
		}
	}
	fleetQuality := func() cluster.FleetQuality {
		var fq cluster.FleetQuality
		fetchJSON(front.URL+"/quality", &fq)
		return fq
	}

	// Healthy fleet: every shard samples, estimates within their CIs.
	preQ, errs := cleanSearchAll(router, qs)
	if errs > 0 {
		log.Fatalf("phase 6: %d pre-drill queries failed", errs)
	}
	recallQPre := dataset.Recall(preQ, truth)
	drainShadows()
	fq := fleetQuality()
	var sampled uint64
	minEst := 1.0
	for _, snap := range fq.Shards {
		sampled += snap.Sampled
		if snap.Recall.Estimate < minEst {
			minEst = snap.Recall.Estimate
		}
	}
	fmt.Printf("  fleet /quality: state %q, %d/%d shards sampling, %d shadow checks, min shard recall est %.4f\n",
		fq.State, len(fq.Shards), *shards, sampled, minEst)
	if len(fq.Shards) != *shards || fq.State == "disabled" || sampled == 0 {
		log.Fatal("phase 6: quality rollup missing shards or samples on a healthy fleet")
	}

	// Kill one shard again: routed recall dips, but the survivors' own
	// shadow-measured recall holds — /quality tells the on-call the dip
	// is lost capacity, not a per-shard quality regression.
	victim.Kill()
	deadline = time.Now().Add(10 * time.Second)
	for router.HealthyShards() == router.NumShards() {
		if time.Now().After(deadline) {
			log.Fatalf("phase 6: prober did not notice shard %s dying", victim.ID)
		}
		time.Sleep(50 * time.Millisecond)
	}
	during, errs := searchAll(router, qs)
	if errs > 0 {
		log.Fatalf("phase 6: %d queries failed during the drill", errs)
	}
	recallDuring := dataset.Recall(during, truth)
	drainShadows()
	fqDuring := fleetQuality()
	fmt.Printf("  during drill: routed recall %.4f -> %.4f, /quality rollup %d/%d shards\n",
		recallQPre, recallDuring, len(fqDuring.Shards), *shards)
	if len(fqDuring.Shards) != *shards-1 {
		log.Fatalf("phase 6: dead shard still in (or survivor missing from) the quality rollup: %d shards", len(fqDuring.Shards))
	}
	for idx, snap := range fqDuring.Shards {
		if snap.Recall.Estimate < 0.5 {
			log.Fatalf("phase 6: surviving shard %s recall estimate collapsed to %.4f", idx, snap.Recall.Estimate)
		}
	}
	if recallDuring >= recallQPre {
		fmt.Println("  (note: degraded recall did not dip — tiny corpus, lucky partition)")
	}

	// Rejoin: the dip clears and the rollup regains the shard.
	if err := victim.Restart(); err != nil {
		log.Fatalf("phase 6: restarting shard %s: %v", victim.ID, err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for router.HealthyShards() < router.NumShards() {
		if time.Now().After(deadline) {
			log.Fatalf("phase 6: shard %s not re-admitted within 10s", victim.ID)
		}
		time.Sleep(50 * time.Millisecond)
	}
	postQ, errs := cleanSearchAll(router, qs)
	if errs > 0 {
		log.Fatalf("phase 6: %d post-rejoin queries failed", errs)
	}
	recallQPost := dataset.Recall(postQ, truth)
	drainShadows()
	fqPost := fleetQuality()
	fmt.Printf("  after rejoin: routed recall %.4f (dip cleared), /quality rollup %d/%d shards\n",
		recallQPost, len(fqPost.Shards), *shards)
	if len(fqPost.Shards) != *shards {
		log.Fatalf("phase 6: rejoined shard absent from the quality rollup (%d shards)", len(fqPost.Shards))
	}
	if recallQPost < recallQPre-0.02 {
		log.Fatalf("phase 6: recall dip did not clear on rejoin (%.4f before, %.4f after)", recallQPre, recallQPost)
	}

	st := router.Stats()
	fmt.Printf("\nrouter stats: %d searches (%d degraded), %d stale drops, %d writes\n",
		st.Searches, st.Degraded, st.StaleDrops, st.Writes)
	for _, ss := range st.Shards {
		fmt.Printf("  shard %d (%s): healthy=%v breaker=%s requests=%d errors=%d hedges=%d p99=%.2fms\n",
			ss.Index, ss.ID, ss.Healthy, ss.Breaker, ss.Requests, ss.Errors, ss.Hedges, 1000*ss.Latency.P99)
	}
	if st.Degraded == 0 {
		log.Fatal("expected degraded fanouts after the kill")
	}
	fmt.Println("\nthe cluster kept serving through a shard loss: recall degraded, availability did not.")
}

// cleanSearchAll is searchAll retried (up to 3 passes) until a pass has
// zero errors and zero new degraded fanouts: recall parity must be
// measured on fanouts that reached every shard, and ambient machine load
// can transiently degrade one without erroring.
func cleanSearchAll(r *cluster.Router, qs *vecmath.Matrix) ([][]topk.Candidate, int) {
	var out [][]topk.Candidate
	var errs int
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			// Let an opened breaker reach half-open and the prober re-admit
			// the shard before retrying.
			time.Sleep(700 * time.Millisecond)
		}
		before := r.Stats().Degraded
		out, errs = searchAll(r, qs)
		if errs == 0 && r.Stats().Degraded == before {
			break
		}
	}
	return out, errs
}

// searchAll routes every query row through the router, returning results
// and the error count (failed queries yield empty rows).
func searchAll(r *cluster.Router, qs *vecmath.Matrix) ([][]topk.Candidate, int) {
	out := make([][]topk.Candidate, qs.Rows)
	errs := 0
	for i := 0; i < qs.Rows; i++ {
		cands, err := r.Search(context.Background(), qs.Row(i))
		if err != nil {
			errs++
			continue
		}
		out[i] = cands
	}
	return out, errs
}

// writeCounts reads per-shard write counters from router stats.
func writeCounts(r *cluster.Router) []uint64 {
	st := r.Stats()
	out := make([]uint64, len(st.Shards))
	for i, s := range st.Shards {
		out[i] = s.Writes
	}
	return out
}

// countSpans counts spans named name in the wire tree.
func countSpans(sp *obs.WireSpan, name string) int {
	if sp == nil {
		return 0
	}
	n := 0
	if sp.Name == name {
		n++
	}
	for _, c := range sp.Children {
		n += countSpans(c, name)
	}
	return n
}

// scrapeMetrics GETs a Prometheus text endpoint and parses it into a
// sample map (labels kept in the key), failing the demo on any malformed
// line — CI runs this as the exposition-format smoke test.
func scrapeMetrics(url string) map[string]float64 {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("scraping %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("scraping %s: HTTP %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("scraping %s: %v", url, err)
	}
	samples := map[string]float64{}
	for ln, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			log.Fatalf("%s line %d: no value: %q", url, ln+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			log.Fatalf("%s line %d: bad value %q: %v", url, ln+1, line[i+1:], err)
		}
		samples[line[:i]] = v
	}
	if len(samples) == 0 {
		log.Fatalf("%s served no samples", url)
	}
	return samples
}

// fetchJSON GETs a JSON endpoint into v, failing the demo on any error.
func fetchJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("fetching %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("fetching %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatalf("decoding %s: %v", url, err)
	}
}

// fetchBundle GETs a /debug/bundle artifact and unpacks the gzipped tar
// in memory into section name -> body.
func fetchBundle(url string) map[string][]byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("fetching %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("fetching %s: HTTP %d", url, resp.StatusCode)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		log.Fatalf("bundle gzip: %v", err)
	}
	files := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("bundle tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			log.Fatalf("bundle tar body: %v", err)
		}
		files[hdr.Name] = body
	}
	return files
}

// findObjective returns the named objective from a snapshot (zero value
// if absent — the caller's burn assertions then fail loudly).
func findObjective(s obs.SLOSnapshot, name string) obs.SLOObjective {
	for _, o := range s.Objectives {
		if o.Objective == name {
			return o
		}
	}
	return obs.SLOObjective{}
}

// vectorJSON renders a query row as a JSON array.
func vectorJSON(v []float32) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%g", x)
	}
	sb.WriteByte(']')
	return sb.String()
}

// matrixHead views the first n rows of m.
func matrixHead(m *vecmath.Matrix, n int) *vecmath.Matrix {
	if n > m.Rows {
		n = m.Rows
	}
	return vecmath.WrapMatrix(m.Data[:n*m.Dim], n, m.Dim)
}
