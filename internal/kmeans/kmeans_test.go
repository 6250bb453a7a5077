package kmeans

import (
	"testing"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// uniform32 returns a uniform float32 in [0, 1).
func uniform32(r *xrand.RNG) float32 { return float32(r.Uint64()>>40) / (1 << 24) }

// blobs generates n points around k well-separated centers.
func blobs(r *xrand.RNG, n, k, dim int, spread float32) (*vecmath.Matrix, []int32) {
	centers := vecmath.NewMatrix(k, dim)
	for i := range centers.Data {
		centers.Data[i] = uniform32(r)*100 - 50
	}
	data := vecmath.NewMatrix(n, dim)
	truth := make([]int32, n)
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		truth[i] = int32(c)
		row := data.Row(i)
		cRow := centers.Row(c)
		for d := range row {
			row[d] = cRow[d] + float32(r.NormFloat64())*spread
		}
	}
	return data, truth
}

func TestTrainRecoversBlobs(t *testing.T) {
	r := xrand.New(1)
	data, truth := blobs(r, 2000, 5, 8, 0.5)
	res := Train(data, Config{K: 5, Seed: 2})
	// Points sharing a true blob must share a learned cluster (purity check).
	blobToCluster := map[int32]int32{}
	errors := 0
	for i, tc := range truth {
		lc := res.Assign[i]
		if prev, ok := blobToCluster[tc]; ok {
			if prev != lc {
				errors++
			}
		} else {
			blobToCluster[tc] = lc
		}
	}
	if frac := float64(errors) / float64(len(truth)); frac > 0.02 {
		t.Errorf("cluster purity violation fraction %v", frac)
	}
}

func TestTrainDeterministic(t *testing.T) {
	r := xrand.New(3)
	data, _ := blobs(r, 500, 4, 6, 1)
	a := Train(data, Config{K: 4, Seed: 7, Workers: 4})
	b := Train(data, Config{K: 4, Seed: 7, Workers: 2})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment differs at %d with different worker counts", i)
		}
	}
	for i := range a.Centroids.Data {
		if a.Centroids.Data[i] != b.Centroids.Data[i] {
			t.Fatalf("centroids differ at %d", i)
		}
	}
}

func TestTrainInertiaDecreases(t *testing.T) {
	r := xrand.New(5)
	data, _ := blobs(r, 1000, 8, 4, 2)
	one := Train(data, Config{K: 8, Seed: 9, MaxIters: 1})
	many := Train(data, Config{K: 8, Seed: 9, MaxIters: 20})
	if many.Inertia > one.Inertia*1.0001 {
		t.Errorf("inertia did not decrease: 1 iter %v, 20 iters %v", one.Inertia, many.Inertia)
	}
}

func TestTrainFewerPointsThanK(t *testing.T) {
	data := vecmath.NewMatrix(3, 2)
	data.SetRow(0, []float32{0, 0})
	data.SetRow(1, []float32{5, 5})
	data.SetRow(2, []float32{9, 9})
	res := Train(data, Config{K: 8, Seed: 1})
	if res.Centroids.Rows != 8 {
		t.Fatalf("centroids rows = %d", res.Centroids.Rows)
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 8 {
			t.Fatalf("assignment out of range: %d", a)
		}
	}
}

func TestTrainK1(t *testing.T) {
	r := xrand.New(11)
	data, _ := blobs(r, 100, 3, 4, 1)
	res := Train(data, Config{K: 1, Seed: 1})
	// Centroid must equal the mean.
	for d := 0; d < data.Dim; d++ {
		sum := float64(0)
		for i := 0; i < data.Rows; i++ {
			sum += float64(data.Row(i)[d])
		}
		mean := float32(sum / float64(data.Rows))
		got := res.Centroids.Row(0)[d]
		if diff := got - mean; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("centroid[%d] = %v, mean = %v", d, got, mean)
		}
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for K=0")
		}
	}()
	Train(vecmath.NewMatrix(1, 1), Config{K: 0})
}

func TestTrainAllIdenticalPoints(t *testing.T) {
	data := vecmath.NewMatrix(50, 3)
	for i := 0; i < 50; i++ {
		data.SetRow(i, []float32{1, 2, 3})
	}
	res := Train(data, Config{K: 4, Seed: 3})
	if res.Inertia != 0 {
		t.Errorf("inertia = %v for identical points", res.Inertia)
	}
}

func BenchmarkTrain(b *testing.B) {
	r := xrand.New(1)
	data, _ := blobs(r, 5000, 16, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(data, Config{K: 16, Seed: 1, MaxIters: 5})
	}
}
