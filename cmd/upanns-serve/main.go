// Command upanns-serve exposes an UpANNS deployment as an HTTP service:
// the online counterpart of the one-shot upanns-search, and the shard
// process of a distributed deployment fronted by upanns-router.
// Concurrent single-query requests are coalesced into micro-batches by
// the internal/serve scheduler before they reach the index, whose base
// is scanned by the native ADC kernels.
//
// The index is deployed through internal/mutable, so the corpus is
// updatable while serving: POST /upsert and /delete stage writes in the
// epoch overlay (batched by the serve-side write batcher), and a
// background compactor publishes the next epoch when log or tombstone
// pressure crosses its threshold — without pausing reads.
//
// With -tiered, the epoch base is served out of core (internal/tier):
// cluster payloads live in an on-disk image, a frequency-driven hot set
// is pinned in RAM under -tier-hot-mb, and probed clusters are prefetched
// ahead of the scan. Results are bit-identical to the in-RAM deployment;
// /metrics gains the upanns_tier_* family.
//
// Start against a dataset written by upanns-datagen, or a synthetic one:
//
//	upanns-serve -base /tmp/sift.base.fvecs -addr :8080
//	upanns-serve -synthetic sift -n 50000 -addr :8080
//
// With -schema, vectors carry typed attribute tags and searches may be
// constrained by predicates (internal/filter): upserts take an "attrs"
// object, /search takes a "filter" expression, and the
// selectivity-adaptive executor chooses between pre- and post-filtering
// per query:
//
//	upanns-serve -synthetic sift -n 50000 -schema "tenant:int,lang:string" -addr :8080
//
// Endpoints (wire types in internal/serve/http.go):
//
//	POST /search  {"vector": [...], "k": 5, "filter": "tenant = 42"}  -> {"ids": [...], "distances": [...]}
//	POST /upsert  {"id": 7, "vector": [...], "attrs": {"tenant": 42}} -> {"id": 7}
//	POST /delete  {"id": 7}                    -> {"id": 7}
//	GET  /stats                                -> shard id + serving/write/index/filter counters (JSON)
//	GET  /healthz                              -> 200 while serving; 503 while draining
//	GET  /metrics                              -> Prometheus text exposition (process, tracer, kernel, serving families)
//	GET  /slo                                  -> burn-rate snapshot of the availability/latency/quality objectives (see -slo-*)
//	GET  /quality                              -> shadow-oracle recall estimates + drift state (see -quality-sample)
//	GET  /trace/recent                         -> recent + slow/error span trees (see -trace-sample, -trace-slow)
//	GET  /debug/costly                         -> per-query cost heat ring (most expensive queries by bytes moved)
//	GET  /debug/bundle                         -> postmortem tar.gz: flight record, traces, metrics, SLO, profiles
//	GET  /debug/pprof/                         -> standard Go profiling endpoints
//
// Under overload the server sheds with 503; requests that miss their
// deadline return 504. On SIGINT/SIGTERM the server drains gracefully:
// admission stops (new requests get 503, /healthz flips to 503 so a
// router or load balancer stops routing here), in-flight batches and
// queued writes flush, a pending compaction finishes, then the process
// exits. A second signal forces immediate exit.
//
// As a cluster shard, set -shard-id so the router's aggregated /stats
// reports this shard under the identity the operator deployed it with
// (the router discovers the id from /healthz; operators should check it
// matches the intended -shards slot, since ID ownership is positional).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "upanns-serve:", err)
	os.Exit(1)
}

func main() {
	var (
		basePath  = flag.String("base", "", "base vectors (.fvecs, e.g. from upanns-datagen); alternative to -synthetic")
		synthetic = flag.String("synthetic", "", "generate a synthetic dataset instead: sift, deep, spacev")
		n         = flag.Int("n", 50000, "synthetic base vectors")
		nlist     = flag.Int("ivf", 64, "IVF cluster count")
		m         = flag.Int("m", 0, "PQ subquantizers (0 = dataset default / dim/8)")
		nprobe    = flag.Int("nprobe", 8, "clusters probed per query")
		k         = flag.Int("k", 10, "neighbors returned")
		seed      = flag.Uint64("seed", 1, "random seed")

		addr     = flag.String("addr", ":8080", "HTTP listen address")
		shardID  = flag.String("shard-id", "", "shard identity reported on /stats and /healthz (set by upanns-router deployments)")
		maxBatch = flag.Int("max-batch", 32, "micro-batch size cap")
		linger   = flag.Duration("linger", 200*time.Microsecond, "max wait to fill a micro-batch")
		queue    = flag.Int("queue", 1024, "admission queue depth")
		timeout  = flag.Duration("timeout", time.Second, "per-request deadline")
		cache    = flag.Int("cache", 4096, "LRU result-cache entries (0 disables)")

		schemaSpec = flag.String("schema", "", `attribute schema enabling filtered search, e.g. "tenant:int,lang:string"; upserts may then carry "attrs" and searches a "filter" predicate`)
		maxK       = flag.Int("max-k", 0, "largest per-request k override accepted on /search (0 = -k)")

		traceSample = flag.Int("trace-sample", 1, "head-sample every Nth request into GET /trace/recent (1 = all, 0 disables tracing; incoming traceparent headers override)")
		traceSlow   = flag.Duration("trace-slow", 50*time.Millisecond, "latency above which a finished trace is retained in the slow-query log")

		sloAvail   = flag.Float64("slo-availability", 0.999, "availability objective: fraction of requests that must not fail server-side (0 disables the SLO tracker)")
		sloLatency = flag.Float64("slo-latency", 0.99, "latency objective: fraction of successful requests answering within -slo-latency-threshold")
		sloLatThr  = flag.Duration("slo-latency-threshold", 50*time.Millisecond, "latency SLI boundary for the latency objective")
		costTopK   = flag.Int("cost-top", 32, "per-query cost heat-ring size served at GET /debug/costly (0 disables cost accounting)")

		qualitySample = flag.Int("quality-sample", 0, "shadow-oracle sampling: re-execute every Nth answered query exactly and serve recall estimates at GET /quality (0 disables)")
		qualityRecall = flag.Float64("quality-recall-target", 0.9, "per-sample recall@k below which a shadow comparison burns quality SLO budget")
		qualityDrift  = flag.Float64("quality-drift-threshold", 0.5, "KL-divergence excess over the rolling baseline at which the drift detector pages")

		writeBatch    = flag.Int("write-batch", 64, "write micro-batch size cap")
		writeLinger   = flag.Duration("write-linger", time.Millisecond, "max wait to fill a write batch")
		compactEvery  = flag.Duration("compact-interval", 25*time.Millisecond, "compaction pressure poll period (0 disables the background compactor)")
		drainDeadline = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
		statePath     = flag.String("state", "", "durable index state: loaded at startup when present, written on graceful shutdown")

		tiered        = flag.Bool("tiered", false, "serve the epoch base out of core: cluster payloads live in an image file and stream through a hot-set/prefetch cluster store")
		tierDir       = flag.String("tier-dir", "", "directory for epoch image files (default: system temp dir)")
		tierHotMB     = flag.Int("tier-hot-mb", 64, "hot-set byte budget in MiB pinned in RAM by the tiered store")
		tierPrefetch  = flag.Int("tier-prefetch", 2, "tiered prefetch workers warming probed clusters (0 disables prefetch)")
		tierRebalance = flag.Duration("tier-rebalance", time.Second, "hot-set rebalance period under observed probe frequencies (0 disables)")
	)
	flag.Parse()
	// One deployment config for a state restore and a cold build alike:
	// the shared streaming policy (mutable.ServingConfig: nprobe and the
	// K slack; its DPU count only shapes the benchmark's paper-model
	// replay) plus this server's compactor period, schema and tiering.
	mcfg := mutable.ServingConfig(*nprobe, *k, 0, *seed)
	mcfg.CheckInterval = *compactEvery
	if *schemaSpec != "" {
		var err error
		if mcfg.Schema, err = filter.ParseSchema(*schemaSpec); err != nil {
			fail(err)
		}
	}
	if *tiered {
		if *statePath != "" {
			// The epoch base already lives in the image file; WriteTo-style
			// state snapshots are redundant with it and unsupported.
			fail(fmt.Errorf("-tiered is incompatible with -state: tiered deployments keep the base in the epoch image file"))
		}
		mcfg.Tier = &mutable.TierConfig{
			Dir: *tierDir,
			Store: tier.Config{
				ShardID:         *shardID,
				HotBytes:        int64(*tierHotMB) << 20,
				PrefetchWorkers: *tierPrefetch,
				RebalanceEvery:  *tierRebalance,
			},
		}
	}

	var costs *obs.CostTracker
	if *costTopK > 0 {
		costs = obs.NewCostTracker(*costTopK)
	}

	var updatable *mutable.UpdatableIndex
	if *statePath != "" {
		updatable = loadState(*statePath, mcfg)
	}
	if updatable == nil {
		base, mm, err := loadBase(*basePath, *synthetic, *n, *m, *seed)
		if err != nil {
			fail(err)
		}
		if updatable, err = buildIndex(base, mm, *nlist, *nprobe, *seed, mcfg); err != nil {
			fail(err)
		}
	}

	var slo *obs.SLOTracker
	if *sloAvail > 0 {
		scfg := obs.SLOConfig{
			Name:               *shardID,
			AvailabilityTarget: *sloAvail,
			LatencyTarget:      *sloLatency,
			LatencyThreshold:   *sloLatThr,
		}
		if *qualitySample > 0 {
			// The quality objective: at least 90% of shadow-checked samples
			// must meet -quality-recall-target while drift is quiet.
			scfg.QualityTarget = 0.9
		}
		slo = obs.NewSLOTracker(scfg)
	}
	var quality *obs.Quality
	if *qualitySample > 0 {
		quality = obs.NewQuality(obs.QualityConfig{
			ShardID:        *shardID,
			SampleEvery:    *qualitySample,
			RecallTarget:   *qualityRecall,
			DriftThreshold: *qualityDrift,
		}, updatable.QualityOracle(), updatable.ClusterOccupancy, slo)
	}

	srv, err := serve.NewServer(serve.Config{
		K:              *k,
		MaxK:           *maxK,
		MaxBatch:       *maxBatch,
		MaxLinger:      *linger,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		CacheSize:      *cache,
		Costs:          costs,
		Quality:        quality,
	}, updatable)
	if err != nil {
		fail(err)
	}

	writer := serve.NewWriteBatcher(serve.WriteConfig{
		MaxBatch:       *writeBatch,
		MaxLinger:      *writeLinger,
		DefaultTimeout: *timeout,
		// Writes change answers; drop cached results before the
		// writers are acknowledged so reads never see stale hits.
		OnApplied: srv.InvalidateCache,
	}, updatable)

	hcfg := serve.HandlerConfig{
		ShardID: *shardID, Writer: writer, Costs: costs, SLO: slo, Quality: quality,
		IndexStats: func() any { return updatable.Stats() },
		Metrics:    updatable.WriteMetrics,
	}
	if *traceSample > 0 {
		hcfg.Tracer = obs.NewTracer(obs.TracerConfig{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
	}
	if mcfg.Schema != nil {
		hcfg.FilterStats = updatable.FilterStats
	}
	handler := serve.NewHandler(srv, hcfg)

	hs := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// First signal: drain. Re-arm signals so a second one kills the
		// process immediately instead of waiting out the drain.
		stop()
		force := make(chan os.Signal, 1)
		signal.Notify(force, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-force
			log.Println("second signal: forcing exit")
			os.Exit(1)
		}()
		log.Println("shutting down: admission stopped, draining in-flight work...")
		handler.StartDraining()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainDeadline)
		defer cancel()
		hs.Shutdown(shutdownCtx) //nolint:errcheck // drain is best-effort under its deadline
	}()

	mode := "mutable (upsert/delete enabled)"
	if mcfg.Schema != nil {
		mode = "mutable + filtered (schema " + mcfg.Schema.Spec() + ")"
	}
	if mcfg.Tier != nil {
		mode += fmt.Sprintf(" + tiered (hot budget %d MiB)", mcfg.Tier.Store.HotBytes>>20)
	}
	tag := ""
	if *shardID != "" {
		tag = fmt.Sprintf(" [shard %s]", *shardID)
	}
	log.Printf("serving %d vectors (dim %d) on %s [%s]%s: POST /search /upsert /delete, GET /stats",
		updatable.Stats().BaseVectors, updatable.Dim(), *addr, mode, tag)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	// ListenAndServe returns as soon as Shutdown starts; wait for the
	// in-flight handlers to drain, then close the layers in dependency
	// order: read batches flush, queued writes apply, and a pending
	// compaction finishes before exit.
	<-drained
	srv.Close()
	writer.Close()
	// The quality plane closes before the index: its shadow worker
	// executes against the deployment it samples.
	quality.Close()
	updatable.Close()
	log.Printf("final index state: epoch %d, %d compactions, %d pending log entries",
		updatable.Stats().Epoch, updatable.Stats().Compactions, updatable.Stats().PendingLog)
	if *statePath != "" {
		if err := saveState(*statePath, updatable); err != nil {
			log.Printf("persisting state: %v", err)
		} else {
			log.Printf("state persisted to %s (pending writes survive the restart)", *statePath)
		}
	}
	log.Printf("final stats: %s", srv.Stats().Latency)
}

// loadState restores a persisted updatable index; nil when the file is
// missing (a cold start).
func loadState(path string, mcfg mutable.Config) *mutable.UpdatableIndex {
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			fail(err)
		}
		return nil
	}
	defer f.Close()
	u, err := mutable.Read(f, mcfg)
	if err != nil {
		fail(fmt.Errorf("loading state from %s: %w", path, err))
	}
	st := u.Stats()
	log.Printf("restored state from %s: epoch %d, %d base vectors, %d pending log entries, %d tombstones",
		path, st.Epoch, st.BaseVectors, st.PendingLog, st.Tombstones)
	return u
}

// saveState atomically persists the updatable index next to path.
func saveState(path string, u *mutable.UpdatableIndex) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := u.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadBase reads or generates the base vectors and resolves M.
func loadBase(basePath, synthetic string, n, m int, seed uint64) (*vecmath.Matrix, int, error) {
	switch {
	case synthetic != "":
		var spec dataset.Spec
		switch synthetic {
		case "sift":
			spec = dataset.SIFT1B
		case "deep":
			spec = dataset.DEEP1B
		case "spacev":
			spec = dataset.SPACEV1B
		default:
			return nil, 0, fmt.Errorf("unknown synthetic dataset %q (sift, deep, spacev)", synthetic)
		}
		log.Printf("generating synthetic %s: %d vectors", spec.Name, n)
		ds := dataset.Generate(spec, n, seed)
		if m == 0 {
			m = spec.M
		}
		return ds.Vectors, m, nil
	case basePath != "":
		f, err := os.Open(basePath)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		base, err := dataset.ReadFvecs(f, 0)
		if err != nil {
			return nil, 0, err
		}
		if m == 0 {
			m = base.Dim / 8
		}
		log.Printf("loaded %d vectors (dim %d) from %s", base.Rows, base.Dim, basePath)
		return base, m, nil
	default:
		return nil, 0, fmt.Errorf("provide either -base or -synthetic")
	}
}

// buildIndex trains the index and deploys it through internal/mutable
// (updatable, epoch-compacted).
func buildIndex(base *vecmath.Matrix, m, nlist, nprobe int, seed uint64, mcfg mutable.Config) (*mutable.UpdatableIndex, error) {
	log.Printf("training IVFPQ: IVF %d, M %d", nlist, m)
	ix := ivfpq.Train(base, ivfpq.Params{NList: nlist, M: m, Seed: seed, TrainSub: 16384})
	ix.Add(base, 0)
	// Bootstrap the tiered hot set's frequencies from a self-sample of
	// the base set; a production deployment would feed a historical
	// query log.
	sample := vecmath.WrapMatrix(base.Data[:min(512, base.Rows)*base.Dim], min(512, base.Rows), base.Dim)
	freqs := workload.ClusterFrequencies(ix.Coarse, sample, nprobe)
	return mutable.New(ix, freqs, mcfg)
}
