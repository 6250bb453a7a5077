// Package kmeans implements Lloyd's k-means with k-means++ initialization,
// the clustering substrate behind both the IVF coarse quantizer and the
// per-subspace product-quantization codebooks. Assignment is parallelized
// across goroutines; all randomness is injected so training is
// deterministic for a given seed.
package kmeans

import (
	"runtime"
	"sync"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Config controls a k-means run.
type Config struct {
	K        int // number of centroids, must be >= 1
	MaxIters int // Lloyd iterations; default 25 if zero
	Seed     uint64
	// Workers bounds assignment parallelism; default GOMAXPROCS if zero.
	Workers int
}

// Result holds trained centroids and the final assignment.
type Result struct {
	Centroids  *vecmath.Matrix // K x Dim
	Assign     []int32         // len == number of training points
	Iterations int             // Lloyd iterations actually executed
	Inertia    float64         // sum of squared distances to assigned centroids
}

// Train clusters the rows of data into cfg.K groups. If there are fewer
// points than K, the surplus centroids are duplicated from random points,
// which keeps downstream consumers (IVF with a fixed cluster count) simple.
func Train(data *vecmath.Matrix, cfg Config) *Result {
	if cfg.K < 1 {
		panic("kmeans: K must be >= 1")
	}
	if data.Rows == 0 {
		panic("kmeans: no training data")
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 25
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	rng := xrand.New(cfg.Seed)

	cents := initPlusPlus(data, cfg.K, rng)
	assign := make([]int32, data.Rows)
	res := &Result{Centroids: cents, Assign: assign}

	counts := make([]int64, cfg.K)
	sums := make([]float64, cfg.K*data.Dim)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		changed, inertia := assignAll(data, cents, assign, cfg.Workers)
		res.Iterations = iter + 1
		res.Inertia = inertia
		if changed == 0 && iter > 0 {
			break
		}
		// Recompute centroids.
		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := 0; i < data.Rows; i++ {
			c := assign[i]
			counts[c]++
			row := data.Row(i)
			base := int(c) * data.Dim
			for d, v := range row {
				sums[base+d] += float64(v)
			}
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty centroid from a random point so no
				// cluster collapses permanently.
				cents.SetRow(c, data.Row(rng.Intn(data.Rows)))
				continue
			}
			inv := 1 / float64(counts[c])
			row := cents.Row(c)
			base := c * data.Dim
			for d := range row {
				row[d] = float32(sums[base+d] * inv)
			}
		}
	}
	// Final assignment against the last centroid update.
	_, res.Inertia = assignAll(data, cents, assign, cfg.Workers)
	return res
}

// initPlusPlus performs k-means++ seeding: the first centroid is uniform,
// each subsequent one is drawn with probability proportional to squared
// distance from the nearest already-chosen centroid.
func initPlusPlus(data *vecmath.Matrix, k int, rng *xrand.RNG) *vecmath.Matrix {
	cents := vecmath.NewMatrix(k, data.Dim)
	first := rng.Intn(data.Rows)
	cents.SetRow(0, data.Row(first))

	// minDist[i] = squared distance of point i to its nearest chosen
	// centroid. dists holds one centroid's distances to every point, from
	// the row-block kernel; a-b and b-a square to the same bits, so it
	// reads the centroid as the query.
	minDist := make([]float64, data.Rows)
	dists := make([]float32, data.Rows)
	vecmath.L2Rows(dists, cents.Row(0), data.Data)
	total := 0.0
	for i, d := range dists {
		minDist[i] = float64(d)
		total += float64(d)
	}
	for c := 1; c < k; c++ {
		var idx int
		if total <= 0 {
			// All points coincide with chosen centroids; fall back to uniform.
			idx = rng.Intn(data.Rows)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = data.Rows - 1
			for i, d := range minDist {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		cents.SetRow(c, data.Row(idx))
		// Update nearest-centroid distances.
		newTotal := 0.0
		vecmath.L2Rows(dists, cents.Row(c), data.Data)
		for i, d32 := range dists {
			if d := float64(d32); d < minDist[i] {
				minDist[i] = d
			}
			newTotal += minDist[i]
		}
		total = newTotal
	}
	return cents
}

// assignAll assigns every point to its nearest centroid in parallel,
// returning the number of changed assignments and total inertia.
func assignAll(data *vecmath.Matrix, cents *vecmath.Matrix, assign []int32, workers int) (int, float64) {
	if workers < 1 {
		workers = 1
	}
	type partial struct {
		changed int
		inertia float64
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (data.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > data.Rows {
			hi = data.Rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var p partial
			for i := lo; i < hi; i++ {
				best, d := cents.ArgminL2(data.Row(i))
				if int32(best) != assign[i] {
					assign[i] = int32(best)
					p.changed++
				}
				p.inertia += float64(d)
			}
			parts[w] = p
		}(w, lo, hi)
	}
	wg.Wait()
	changed, inertia := 0, 0.0
	for _, p := range parts {
		changed += p.changed
		inertia += p.inertia
	}
	return changed, inertia
}
