package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/vecmath"
)

// The benchmark assembles its deployments from the public constructors,
// in the order cluster.StartLocalShards does (train, add, mutable.New,
// NewServer, NewWriteBatcher, NewHandler on a loopback listener, then the
// router), so it holds a handle on every layer it wants to time. Result
// cache off, every program-side observability plane off.

// requestTimeout is far above any real latency here: a loaded sandbox must
// not turn a slow batch into a 504 and a correctness failure.
const requestTimeout = 30 * time.Second

// shardDep is one shard with a handle on each of its layers.
type shardDep struct {
	ID     string
	URL    string
	IDs    []int64
	Index  *mutable.UpdatableIndex
	Server *serve.Server
	Writer *serve.WriteBatcher
	// Base is a copy of the epoch-0 index header taken before mutable.New
	// took ownership: same quantizers, and the posting lists a tiered
	// deploy strips from the original. Read-only; the traced run scans it.
	Base *ivfpq.Index
	MCfg mutable.Config

	hs *http.Server
}

// deployment is what one workload runs against.
type deployment struct {
	Shards   []*shardDep
	Router   *cluster.Router // nil on single-shard workloads
	FrontURL string          // where clients send: the router, or the one shard
	SetupS   float64         // dataset in hand -> first 200 on /healthz

	routerHS *http.Server
	tmpDir   string
}

func listenAndServe(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns when Close shuts the listener
	return hs, "http://" + ln.Addr().String(), nil
}

// deploy builds the workload's deployment and times it. tmpRoot is where a
// tiered shard keeps its epoch image files.
func deploy(in *inputs, tmpRoot string) (_ *deployment, err error) {
	start := time.Now()
	sc := in.sc
	d := &deployment{}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	if in.workload == wlTieredCold {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		if d.tmpDir, err = os.MkdirTemp(tmpRoot, "tier-"); err != nil {
			return nil, err
		}
	}

	nsh := shardsOf(in.workload)
	partIDs := make([][]int64, nsh)
	for i := 0; i < in.base.Rows; i++ {
		sh := cluster.Owner(int64(i), nsh)
		partIDs[sh] = append(partIDs[sh], int64(i))
	}
	for sh := 0; sh < nsh; sh++ {
		ids := partIDs[sh]
		part := vecmath.NewMatrix(len(ids), in.base.Dim)
		for ri, id := range ids {
			part.SetRow(ri, in.base.Row(int(id)))
		}
		ix := ivfpq.Train(part, ivfpq.Params{
			NList: sc.NList, M: in.ds.Spec.M,
			Seed: programSeed + uint64(sh)*1013, TrainSub: sc.TrainSub,
		})
		ix.AddWithIDs(part, ids)
		base := *ix

		mcfg := mutable.ServingConfig(sc.NProbe, sc.K, sc.DPUs, programSeed+uint64(sh)*2027)
		mcfg.Schema = in.schema
		switch in.workload {
		case wlMixedSingle:
			mcfg.MaxLogRatio = sc.MaxLogRatio
		case wlTieredCold:
			// A quarter of the base payload (8-byte id + M code bytes per
			// vector) may stay pinned: the working set is 4x the program's
			// own cache. Prefetch and rebalance as upanns-serve -tiered does.
			payload := int64(len(ids)) * int64(8+ix.PQ.M)
			mcfg.Tier = &mutable.TierConfig{Dir: d.tmpDir, Store: tier.Config{
				HotBytes: payload / 4, PrefetchWorkers: 2, RebalanceEvery: time.Second,
			}}
		}
		u, err := mutable.New(ix, nil, mcfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d deploy: %w", sh, err)
		}
		s := &shardDep{ID: fmt.Sprintf("s%d", sh), IDs: ids, Index: u, Base: &base, MCfg: mcfg}
		d.Shards = append(d.Shards, s)
		if in.schema != nil {
			attrs := make([]filter.Attrs, len(ids))
			for ai, id := range ids {
				attrs[ai] = in.attrs[id]
			}
			if err := u.LoadAttrs(ids, attrs); err != nil {
				return nil, fmt.Errorf("shard %d attrs: %w", sh, err)
			}
		}
		// upanns-serve's defaults (32-row batches, 200 us linger; 1 ms write
		// linger). A zero Config would mean no linger at all.
		scfg := serve.DefaultConfig()
		scfg.K, scfg.DefaultTimeout = sc.K, requestTimeout
		if s.Server, err = serve.NewServer(scfg, u); err != nil {
			return nil, fmt.Errorf("shard %d server: %w", sh, err)
		}
		wcfg := serve.DefaultWriteConfig()
		wcfg.OnApplied, wcfg.DefaultTimeout = s.Server.InvalidateCache, requestTimeout
		s.Writer = serve.NewWriteBatcher(wcfg, u)
		hcfg := serve.HandlerConfig{
			ShardID:    s.ID,
			Writer:     s.Writer,
			IndexStats: func() any { return u.Stats() },
			Metrics:    u.WriteMetrics,
		}
		if in.schema != nil {
			hcfg.FilterStats = u.FilterStats
		}
		if s.hs, s.URL, err = listenAndServe(serve.NewHandler(s.Server, hcfg)); err != nil {
			return nil, fmt.Errorf("shard %d listen: %w", sh, err)
		}
	}

	d.FrontURL = d.Shards[0].URL
	if nsh > 1 {
		urls := make([]string, nsh)
		for i, s := range d.Shards {
			urls[i] = s.URL
		}
		if d.Router, err = cluster.New(urls, cluster.Config{K: sc.K, SearchTimeout: requestTimeout}); err != nil {
			return nil, err
		}
		if d.routerHS, d.FrontURL, err = listenAndServe(cluster.NewHandler(d.Router)); err != nil {
			return nil, err
		}
	}
	if err := awaitHealthy(d.FrontURL, nsh > 1, nsh); err != nil {
		return nil, err
	}
	d.SetupS = time.Since(start).Seconds()
	return d, nil
}

// awaitHealthy polls /healthz until it answers 200 (and, for a router,
// until every shard is counted healthy).
func awaitHealthy(url string, router bool, shards int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		var health struct {
			Healthy int `json:"healthy_shards"`
		}
		status, err := getJSON(ctx, http.DefaultClient, url+"/healthz", &health)
		cancel()
		if err == nil && status == http.StatusOK && (!router || health.Healthy == shards) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deployment at %s not healthy after 10s (status %d, err %v)", url, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops everything deploy started, front to back, and removes the
// tiered shard's image directory. Safe on a partly built deployment.
func (d *deployment) Close() {
	if d.routerHS != nil {
		d.routerHS.Close()
	}
	if d.Router != nil {
		d.Router.Close()
	}
	for _, s := range d.Shards {
		if s.hs != nil {
			s.hs.Close()
		}
		if s.Writer != nil {
			s.Writer.Close()
		}
		if s.Server != nil {
			s.Server.Close()
		}
		s.Index.Close()
	}
	if d.tmpDir != "" {
		os.RemoveAll(d.tmpDir)
	}
	http.DefaultClient.CloseIdleConnections()
}
