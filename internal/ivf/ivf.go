// Package ivf implements the Inverted File coarse quantizer: a flat
// k-means partition of the dataset into nlist clusters. Every backend
// shares this structure; cluster filtering (stage (a) of the IVFPQ online
// pipeline, Figure 2 of the paper) is a top-nprobe scan over the centroid
// table.
package ivf

import (
	"repro/internal/kmeans"
	"repro/internal/vecmath"
)

// Coarse is a trained coarse quantizer.
type Coarse struct {
	Centroids *vecmath.Matrix // nlist x dim
}

// Train learns nlist centroids from the rows of data.
func Train(data *vecmath.Matrix, nlist int, seed uint64) *Coarse {
	res := kmeans.Train(data, kmeans.Config{K: nlist, Seed: seed, MaxIters: 20})
	return &Coarse{Centroids: res.Centroids}
}

// NList returns the number of clusters.
func (c *Coarse) NList() int { return c.Centroids.Rows }

// Dim returns the vector dimensionality.
func (c *Coarse) Dim() int { return c.Centroids.Dim }

// Assign returns the nearest centroid id for vec.
func (c *Coarse) Assign(vec []float32) int32 {
	id, _ := c.Centroids.ArgminL2(vec)
	return int32(id)
}

// ProbeInto returns the nprobe nearest cluster ids for query, closest
// first, in caller-provided backing for the ids and the centroid-distance
// scratch (either may be nil; each is grown only when capacity falls
// short), so steady-state search paths probe without allocating. Both
// slices are returned so the caller can retain the grown backing.
func (c *Coarse) ProbeInto(ids []int32, ds []float32, query []float32, nprobe int) ([]int32, []float32) {
	return c.Centroids.TopNL2Into(ids, ds, query, nprobe)
}

// Residual writes vec - centroid[cluster] into dst and returns it.
func (c *Coarse) Residual(dst, vec []float32, cluster int32) []float32 {
	return vecmath.Sub(dst, vec, c.Centroids.Row(int(cluster)))
}
