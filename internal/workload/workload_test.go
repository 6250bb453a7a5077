package workload

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/ivf"
)

func TestClusterFrequenciesSkewed(t *testing.T) {
	ds := dataset.Generate(dataset.SPACEV1B, 5000, 1)
	coarse := ivf.Train(ds.Vectors, 32, 1)
	queries := ds.Queries(500, 2)
	freqs := ClusterFrequencies(coarse, queries, 4)
	if len(freqs) != 32 {
		t.Fatalf("freqs length %d", len(freqs))
	}
	mean := 0.0
	for _, f := range freqs {
		if f <= 0 {
			t.Fatalf("non-positive frequency %v", f)
		}
		mean += f
	}
	mean /= float64(len(freqs))
	if mean < 0.5 || mean > 1.5 {
		t.Errorf("mean frequency %v, want ~1", mean)
	}
	if AccessSkew(freqs) < 2 {
		t.Errorf("access skew %v, want skewed (Fig. 4a)", AccessSkew(freqs))
	}
}

func TestClusterFrequenciesNilSample(t *testing.T) {
	ds := dataset.Generate(dataset.SIFT1B, 500, 3)
	coarse := ivf.Train(ds.Vectors, 8, 3)
	freqs := ClusterFrequencies(coarse, nil, 4)
	for _, f := range freqs {
		if f != 1 {
			t.Fatalf("nil sample should give uniform 1, got %v", f)
		}
	}
}

func TestAccessSkewUniform(t *testing.T) {
	if s := AccessSkew([]float64{1, 1, 1, 1}); s != 1 {
		t.Fatalf("uniform skew %v", s)
	}
	if s := AccessSkew(nil); s != 1 {
		t.Fatalf("empty skew %v", s)
	}
}
