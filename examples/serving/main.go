// Online serving walkthrough: fronting the UpANNS engine with the
// internal/serve layer and driving it with open-loop Zipfian traffic, the
// way a production ANNS tier meets users. Two phases demonstrate the
// serving mechanics end to end:
//
//  1. a sustainable Poisson arrival rate — micro-batching coalesces
//     concurrent requests, the LRU result cache absorbs the hot queries,
//     and the latency quantiles stay flat;
//
//  2. a deliberate overload (3x the measured capacity) with a short
//     queue and a request deadline — the server keeps running at its
//     capacity, sheds the excess at admission, and the stats show exactly
//     how much traffic was turned away and what the survivors paid.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ivfpq"
	"repro/internal/pim"
	"repro/internal/serve"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

func main() {
	const (
		nVectors = 30000
		nDPUs    = 32
		nprobe   = 8
		topK     = 10
		poolSize = 256 // distinct queries in the traffic pool
		zipfSkew = 1.0 // hot-query popularity exponent
	)

	fmt.Printf("deploying UpANNS: %d SIFT-like vectors on %d simulated DPUs\n", nVectors, nDPUs)
	ds := dataset.Generate(dataset.SIFT1B, nVectors, 42)
	ix := ivfpq.Train(ds.Vectors, ivfpq.Params{NList: 64, M: dataset.SIFT1B.M, Seed: 7, TrainSub: 8192})
	ix.Add(ds.Vectors, 0)
	spec := pim.DefaultSpec()
	spec.NumDIMMs = 1
	spec.DPUsPerDIMM = nDPUs
	sys := pim.NewSystem(spec)
	cfg := core.DefaultConfig()
	cfg.NProbe = nprobe
	cfg.K = topK
	pool := ds.Queries(poolSize, 99)
	freqs := workload.ClusterFrequencies(ix.Coarse, pool, nprobe)
	engine, err := core.Build(ix, sys, freqs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	backend := &serve.FuncBackend{D: ix.Dim, Fn: func(q *vecmath.Matrix, _ int) ([][]topk.Candidate, error) {
		br, err := engine.SearchBatch(q) // built at topK, the served k
		if err != nil {
			return nil, err
		}
		return br.Results, nil
	}}

	// Calibrate: one big batch measures the engine's batched wall-clock
	// capacity on this machine, so the open-loop rates below mean the same
	// thing everywhere.
	calN := 64
	calStart := time.Now()
	if _, err := engine.SearchBatch(vecmath.WrapMatrix(pool.Data[:calN*pool.Dim], calN, pool.Dim)); err != nil {
		log.Fatal(err)
	}
	capacity := float64(calN) / time.Since(calStart).Seconds()
	fmt.Printf("measured batched capacity: ~%.0f QPS\n\n", capacity)

	// ---- Phase 1: sustainable Zipfian load ----
	fmt.Println("phase 1: open-loop Poisson arrivals at 50% of capacity, Zipf query popularity")
	srv, err := serve.NewServer(serve.Config{
		K: topK, MaxBatch: 32, MaxLinger: 500 * time.Microsecond,
		QueueDepth: 1024, DefaultTimeout: 5 * time.Second, CacheSize: 128,
	}, backend)
	if err != nil {
		log.Fatal(err)
	}
	stream := workload.NewQueryStream(pool, zipfSkew, 5)
	fmt.Printf("  (best possible hit rate with a %d-entry cache on this stream: %.0f%%)\n",
		srv.Config().CacheSize, 100*stream.HitRateUpperBound(srv.Config().CacheSize))
	runOpenLoop(srv, pool, 0.5*capacity, 2*time.Second, zipfSkew)
	report(srv.Stats())
	srv.Close()

	// ---- Phase 2: overload with admission control ----
	fmt.Println("phase 2: 3x capacity, 250ms deadline, 16-deep queue — shedding instead of collapse")
	srv2, err := serve.NewServer(serve.Config{
		K: topK, MaxBatch: 32, MaxLinger: 500 * time.Microsecond,
		QueueDepth: 16, DefaultTimeout: 250 * time.Millisecond, CacheSize: 0,
	}, backend)
	if err != nil {
		log.Fatal(err)
	}
	runOpenLoop(srv2, pool, 3*capacity, 2*time.Second, zipfSkew)
	st := srv2.Stats()
	report(st)
	srv2.Close()

	turnedAway := float64(st.Shed+st.Expired) / float64(st.Requests)
	fmt.Printf("\nunder 3x overload the server stayed up, answered %d requests within deadline,\n"+
		"and turned away %.0f%% (shed %d at admission, %d missed deadlines) — bounded queues,\n"+
		"bounded latency, no collapse.\n", st.Completed+st.CacheHits, 100*turnedAway, st.Shed, st.Expired)
}

// runOpenLoop fires Poisson arrivals at the target rate for the given
// duration, drawing Zipf-popular queries from pool.
func runOpenLoop(srv *serve.Server, pool *vecmath.Matrix, rate float64, dur time.Duration, skew float64) {
	n := int(rate * dur.Seconds())
	arrivals := workload.PoissonArrivals(rate, n, 17)
	stream := workload.NewQueryStream(pool, skew, 23)
	// Draw the query sequence up front; the firing loop then only sleeps
	// and dispatches.
	queries := make([][]float32, n)
	for i := range queries {
		queries[i] = stream.Next()
	}
	done := make(chan struct{}, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if wait := arrivals[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		go func(q []float32) {
			srv.Search(context.Background(), q) // outcome lands in Stats
			done <- struct{}{}
		}(queries[i])
	}
	for i := 0; i < n; i++ {
		<-done
	}
	elapsed := time.Since(start)
	fmt.Printf("  offered %d requests over %s (target rate %.0f/s)\n", n, elapsed.Round(time.Millisecond), rate)
}

// report prints the serving counters and latency quantiles.
func report(st serve.Stats) {
	fmt.Printf("  served %d (cache hits %d, hit rate %.0f%%, coalesced %d, mean batch %.1f)\n",
		st.Completed+st.CacheHits, st.CacheHits, 100*st.HitRate(), st.Coalesced, st.MeanBatchSize)
	fmt.Printf("  shed %d, expired %d\n", st.Shed, st.Expired)
	l := st.Latency
	fmt.Printf("  latency: p50 %.2fms  p95 %.2fms  p99 %.2fms  (n=%d)\n\n",
		1000*l.P50, 1000*l.P95, 1000*l.P99, l.Count)
}
