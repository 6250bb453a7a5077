package cluster

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/vecmath"
)

// This file boots a real shard fleet inside one process: each shard is a
// full mutable UpANNS deployment (its own trained index, simulated PIM
// system, micro-batching server and write batcher) behind the actual
// shard HTTP surface on a loopback listener. examples/cluster, the
// benchmark's fleet workloads, and kill/rejoin drills use it to exercise
// the router against live shards without spawning processes.

// LocalOptions sizes an in-process shard fleet.
type LocalOptions struct {
	Shards   int    // shard count (default 3)
	NList    int    // IVF clusters per shard (default 32)
	M        int    // PQ subquantizers (default dim/8, min 1)
	KSub     int    // PQ centroids per subspace (0 = package default)
	TrainSub int    // per-shard training subsample (default 8192)
	NProbe   int    // clusters probed per query (default 8)
	K        int    // neighbors served per shard query (default 10)
	Seed     uint64 // base seed; each shard derives its own
	// CacheSize is each shard's LRU result cache (default 0, disabled:
	// recall experiments must hit the index, and the router's hedge
	// histograms should see scan latency, not cache hits).
	CacheSize int
	// RequestTimeout is each shard's per-request serving deadline
	// (default 30s — far above a real search's latency, so a loaded CI
	// machine cannot turn a slow batch into a 504 and silently degrade a
	// recall measurement).
	RequestTimeout time.Duration
	// Schema, when non-nil, deploys every shard with attribute filtering
	// enabled; AttrsFor (required with Schema) tags each global id at
	// boot, and filtered queries then pass through the router to the
	// shards' selectivity-adaptive executors.
	Schema   *filter.Schema
	AttrsFor func(id int64) filter.Attrs
	// MaxK bounds per-request k overrides on each shard (0 = K).
	MaxK int
	// Trace, when true, gives each shard its own request tracer, so
	// fanouts carrying a traceparent header come back with shard-side
	// span trees and each shard's GET /trace/recent is populated. Off by
	// default: the benchmark measures tracing overhead explicitly
	// (trace.overhead_pct).
	Trace bool
	// Obs, when true, wires the full health plane into each shard: an
	// SLO burn-rate tracker served at GET /slo, and a per-query cost
	// tracker shared between the serving layer (which fills it) and
	// GET /debug/costly (which serves it).
	Obs bool
	// SLOFastWindow overrides the shards' fast burn window when Obs is
	// set (0 = the obs default, 5m). Kill drills use sub-second windows
	// so budget burn becomes visible within a test run.
	SLOFastWindow time.Duration
	// QualitySample, when > 0, wires the shadow-oracle quality plane
	// into each shard: 1 in QualitySample answered queries is re-run
	// against the exact oracle and folded into GET /quality's recall
	// estimators and drift detector. Requires Obs (the quality SLO
	// objective feeds the shard's burn-rate tracker). 0 disables.
	QualitySample int
	// QualityRecallTarget is the per-sample recall threshold below which
	// a shadow sample burns quality SLO budget (0 = the obs default).
	QualityRecallTarget float64
	// QualityDriftThreshold overrides the drift detector's KL-excess
	// paging threshold (0 = the obs default).
	QualityDriftThreshold float64
}

func (o LocalOptions) withDefaults(dim int) LocalOptions {
	if o.Shards <= 0 {
		o.Shards = 3
	}
	if o.NList <= 0 {
		o.NList = 32
	}
	if o.M <= 0 {
		o.M = dim / 8
		if o.M == 0 {
			o.M = 1
		}
	}
	if o.TrainSub <= 0 {
		o.TrainSub = 8192
	}
	if o.NProbe <= 0 {
		o.NProbe = 8
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// LocalShard is one in-process shard: a mutable UpANNS deployment behind
// the shard HTTP surface (internal/serve.Handler) on a loopback listener.
type LocalShard struct {
	ID  string
	URL string
	// OwnedIDs are the global ids this shard indexed at boot (its
	// Owner-hash partition of the corpus).
	OwnedIDs []int64

	Index   *mutable.UpdatableIndex
	Server  *serve.Server
	Writer  *serve.WriteBatcher
	Handler *serve.Handler
	// SLO and Costs are the shard's health-plane trackers (nil unless
	// LocalOptions.Obs was set).
	SLO   *obs.SLOTracker
	Costs *obs.CostTracker
	// Quality is the shard's shadow-oracle quality plane (nil unless
	// LocalOptions.QualitySample was set).
	Quality *obs.Quality

	addr   string
	hs     *http.Server
	killed bool
}

// Kill abruptly stops the shard's HTTP server — listener closed, active
// connections dropped — simulating a crash. The in-memory deployment is
// left for Close (or for Restart, which rebinds the shard's address).
func (s *LocalShard) Kill() {
	if !s.killed {
		s.killed = true
		s.hs.Close() //nolint:errcheck // crash semantics: drop everything
	}
}

// Restart re-listens on the killed shard's original address with the
// same handler and deployment — the "process came back on its port" half
// of a kill/rejoin drill. The freed loopback port can take a moment to
// become bindable again, so binding is retried briefly. No-op on a live
// shard.
func (s *LocalShard) Restart() error {
	if !s.killed {
		return nil
	}
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if ln, err = net.Listen("tcp", s.addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("cluster: restarting shard %s on %s: %w", s.ID, s.addr, err)
	}
	s.hs = &http.Server{Handler: s.Handler}
	s.killed = false
	go s.hs.Serve(ln) //nolint:errcheck // exits on Kill/Close
	return nil
}

// Close shuts the shard down: HTTP first, then the serving layers in
// dependency order (the quality plane before the index — its shadow
// worker executes against the index). Safe after Kill and idempotent.
func (s *LocalShard) Close() {
	s.Kill()
	s.Writer.Close()
	s.Server.Close()
	s.Quality.Close()
	s.Index.Close()
}

// StartLocalShards hash-partitions base over o.Shards shards by Owner
// (row index = global id, the same hash the router routes writes with),
// trains and deploys a mutable index per shard, and serves each behind
// the shard HTTP surface on 127.0.0.1. Callers own the returned shards
// and must Close each.
func StartLocalShards(base *vecmath.Matrix, o LocalOptions) ([]*LocalShard, error) {
	o = o.withDefaults(base.Dim)

	// Partition the corpus exactly as the router partitions writes.
	partIDs := make([][]int64, o.Shards)
	partRows := make([][]int, o.Shards)
	for i := 0; i < base.Rows; i++ {
		sh := Owner(int64(i), o.Shards)
		partIDs[sh] = append(partIDs[sh], int64(i))
		partRows[sh] = append(partRows[sh], i)
	}

	shards := make([]*LocalShard, 0, o.Shards)
	fail := func(err error) ([]*LocalShard, error) {
		for _, s := range shards {
			s.Close()
		}
		return nil, err
	}
	for sh := 0; sh < o.Shards; sh++ {
		if len(partIDs[sh]) == 0 {
			return fail(fmt.Errorf("cluster: shard %d owns no vectors (%d rows over %d shards)", sh, base.Rows, o.Shards))
		}
		part := vecmath.NewMatrix(len(partRows[sh]), base.Dim)
		for ri, row := range partRows[sh] {
			part.SetRow(ri, base.Row(row))
		}
		ix := ivfpq.Train(part, ivfpq.Params{
			NList: o.NList, M: o.M, KSub: o.KSub,
			Seed: o.Seed + uint64(sh)*1013, TrainSub: o.TrainSub,
		})
		ix.AddWithIDs(part, partIDs[sh])

		mcfg := mutable.ServingConfig(o.NProbe, o.K, 0, o.Seed+uint64(sh)*2027)
		mcfg.Schema = o.Schema
		u, err := mutable.New(ix, nil, mcfg)
		if err != nil {
			return fail(fmt.Errorf("cluster: shard %d deploy: %w", sh, err))
		}
		if o.Schema != nil {
			attrs := make([]filter.Attrs, len(partIDs[sh]))
			for ai, id := range partIDs[sh] {
				attrs[ai] = o.AttrsFor(id)
			}
			if err := u.LoadAttrs(partIDs[sh], attrs); err != nil {
				u.Close()
				return fail(fmt.Errorf("cluster: shard %d attrs: %w", sh, err))
			}
		}
		id := fmt.Sprintf("s%d", sh)
		var slo *obs.SLOTracker
		var costs *obs.CostTracker
		if o.Obs || o.QualitySample > 0 {
			scfg := obs.SLOConfig{Name: id, FastWindow: o.SLOFastWindow}
			if o.QualitySample > 0 {
				// The quality objective: at least 90% of shadow-checked
				// samples must meet the recall target while drift is quiet.
				scfg.QualityTarget = 0.9
			}
			slo = obs.NewSLOTracker(scfg)
			costs = obs.NewCostTracker(0)
		}
		var quality *obs.Quality
		if o.QualitySample > 0 {
			quality = obs.NewQuality(obs.QualityConfig{
				ShardID:        id,
				SampleEvery:    o.QualitySample,
				RecallTarget:   o.QualityRecallTarget,
				DriftThreshold: o.QualityDriftThreshold,
			}, u.QualityOracle(), u.ClusterOccupancy, slo)
		}
		srv, err := serve.NewServer(serve.Config{
			K: o.K, MaxK: o.MaxK, CacheSize: o.CacheSize, DefaultTimeout: o.RequestTimeout,
			Costs: costs, Quality: quality,
		}, u)
		if err != nil {
			quality.Close()
			u.Close()
			return fail(fmt.Errorf("cluster: shard %d server: %w", sh, err))
		}
		writer := serve.NewWriteBatcher(serve.WriteConfig{
			OnApplied:      srv.InvalidateCache,
			DefaultTimeout: o.RequestTimeout,
		}, u)
		hcfg := serve.HandlerConfig{
			ShardID:    id,
			Writer:     writer,
			IndexStats: func() any { return u.Stats() },
			Metrics:    u.WriteMetrics,
			SLO:        slo,
			Costs:      costs,
			Quality:    quality,
		}
		if o.Trace {
			hcfg.Tracer = obs.NewTracer(obs.TracerConfig{})
		}
		if o.Schema != nil {
			hcfg.FilterStats = u.FilterStats
		}
		handler := serve.NewHandler(srv, hcfg)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			writer.Close()
			srv.Close()
			quality.Close()
			u.Close()
			return fail(fmt.Errorf("cluster: shard %d listen: %w", sh, err))
		}
		hs := &http.Server{Handler: handler}
		go hs.Serve(ln) //nolint:errcheck // exits on Kill/Close

		shards = append(shards, &LocalShard{
			ID:       id,
			URL:      "http://" + ln.Addr().String(),
			OwnedIDs: partIDs[sh],
			Index:    u,
			Server:   srv,
			Writer:   writer,
			Handler:  handler,
			SLO:      slo,
			Costs:    costs,
			Quality:  quality,
			addr:     ln.Addr().String(),
			hs:       hs,
		})
	}
	return shards, nil
}

// ShardURLs returns the shards' base URLs in shard order (the order that
// defines ID ownership for a Router over them).
func ShardURLs(shards []*LocalShard) []string {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.URL
	}
	return urls
}
