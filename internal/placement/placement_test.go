package placement

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// skewedWorkload builds cluster sizes and Zipf access frequencies like the
// Fig. 4 distributions.
func skewedWorkload(r *xrand.RNG, m int) ([]int, []float64) {
	sizes := make([]int, m)
	freqs := make([]float64, m)
	zs := xrand.NewZipf(m, 1.1)
	zf := xrand.NewZipf(m, 1.0)
	for i := range sizes {
		sizes[i] = 10
		freqs[i] = 0.1
	}
	for i := 0; i < m*50; i++ {
		sizes[zs.Sample(r)] += 10
	}
	for i := 0; i < m*20; i++ {
		freqs[zf.Sample(r)] += 1
	}
	return sizes, freqs
}

// maxLoadRatio returns max/avg of p's offline load estimate.
func maxLoadRatio(p *Placement) float64 {
	var sum, maxL float64
	for _, l := range p.Load {
		sum += l
		maxL = max(maxL, l)
	}
	return maxL / (sum / float64(len(p.Load)))
}

// perm returns a random permutation of [0, n).
func perm(r *xrand.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// uniform32 returns a uniform float32 in [0, 1).
func uniform32(r *xrand.RNG) float32 { return float32(r.Uint64()>>40) / (1 << 24) }

func TestPlaceCoversEveryCluster(t *testing.T) {
	r := xrand.New(1)
	sizes, freqs := skewedWorkload(r, 64)
	p := Place(sizes, freqs, 16, nil, DefaultParams())
	for c := range sizes {
		if sizes[c] > 0 && len(p.Replicas[c]) == 0 {
			t.Fatalf("cluster %d has no replica", c)
		}
		// Replicas must be distinct DPUs.
		seen := map[int32]bool{}
		for _, d := range p.Replicas[c] {
			if d < 0 || int(d) >= 16 {
				t.Fatalf("cluster %d on invalid DPU %d", c, d)
			}
			if seen[d] {
				t.Fatalf("cluster %d has duplicate replica on DPU %d", c, d)
			}
			seen[d] = true
		}
	}
}

func TestPlaceReplicatesHotClusters(t *testing.T) {
	// One scorching cluster whose workload is 10x the per-DPU average
	// must receive multiple replicas.
	sizes := []int{1000, 10, 10, 10, 10, 10, 10, 10}
	freqs := []float64{100, 1, 1, 1, 1, 1, 1, 1}
	p := Place(sizes, freqs, 8, nil, DefaultParams())
	if n := len(p.Replicas[0]); n < 4 {
		t.Errorf("hot cluster got %d replicas, want several", n)
	}
	if n := len(p.Replicas[1]); n != 1 {
		t.Errorf("cold cluster got %d replicas, want 1", n)
	}
}

func TestPlaceBalancesLoad(t *testing.T) {
	r := xrand.New(2)
	sizes, freqs := skewedWorkload(r, 128)
	p := Place(sizes, freqs, 32, nil, DefaultParams())
	if ratio := maxLoadRatio(p); ratio > 1.6 {
		t.Errorf("offline load ratio %v, want near 1", ratio)
	}
	rand := RandomPlacement(sizes, 32, 2)
	if maxLoadRatio(p) >= maxLoadRatio(rand) {
		t.Errorf("Algorithm 1 ratio %v not better than random %v",
			maxLoadRatio(p), maxLoadRatio(rand))
	}
}

func TestPlaceSizeCapRespected(t *testing.T) {
	sizes := []int{100, 100, 100, 100}
	freqs := []float64{1, 1, 1, 1}
	params := DefaultParams()
	params.MaxDPUSize = 200
	p := Place(sizes, freqs, 4, nil, params)
	for d, s := range p.Sizes {
		if s > 200 {
			t.Errorf("DPU %d holds %d vectors, cap 200", d, s)
		}
	}
}

func TestPlacePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Place([]int{1}, []float64{1, 2}, 4, nil, DefaultParams())
}

func TestRandomPlacementSingleReplica(t *testing.T) {
	sizes := []int{5, 5, 5, 5, 5}
	p := RandomPlacement(sizes, 3, 7)
	for c := range sizes {
		if len(p.Replicas[c]) != 1 {
			t.Fatalf("cluster %d has %d replicas", c, len(p.Replicas[c]))
		}
	}
}

func TestProximityOrderVisitsAll(t *testing.T) {
	r := xrand.New(3)
	cents := vecmath.NewMatrix(20, 4)
	for i := range cents.Data {
		cents.Data[i] = uniform32(r)
	}
	order := ProximityOrder(cents)
	if len(order) != 20 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 20)
	for _, c := range order {
		if seen[c] {
			t.Fatalf("cluster %d visited twice", c)
		}
		seen[c] = true
	}
}

func TestProximityOrderChainsNeighbors(t *testing.T) {
	// Clusters on a line: the chain must walk the line in order.
	cents := vecmath.NewMatrix(10, 1)
	for i := 0; i < 10; i++ {
		cents.SetRow(i, []float32{float32(i)})
	}
	order := ProximityOrder(cents)
	for i := range order {
		if order[i] != i {
			t.Fatalf("line walk broken: %v", order)
		}
	}
}

func TestScheduleAssignsEveryProbeOnce(t *testing.T) {
	r := xrand.New(4)
	sizes, freqs := skewedWorkload(r, 32)
	p := Place(sizes, freqs, 8, nil, DefaultParams())
	filtered := make([][]int32, 50)
	for qi := range filtered {
		order := perm(r, 32)
		for _, c := range order[:4] {
			filtered[qi] = append(filtered[qi], int32(c))
		}
	}
	a := ScheduleWeighted(filtered, sizes, 0, p)
	type key struct{ q, c int32 }
	seen := map[key]int{}
	for d := range a.PerDPU {
		for _, task := range a.PerDPU[d] {
			seen[key{task.Query, task.Cluster}]++
			// Task must land on a DPU holding a replica.
			if !contains(p.Replicas[task.Cluster], int32(d)) {
				t.Fatalf("task %+v scheduled on DPU %d without replica", task, d)
			}
		}
	}
	want := 0
	for qi := range filtered {
		for _, c := range filtered[qi] {
			want++
			if seen[key{int32(qi), c}] != 1 {
				t.Fatalf("probe (q=%d,c=%d) assigned %d times", qi, c, seen[key{int32(qi), c}])
			}
		}
	}
	if len(seen) != want {
		t.Fatalf("assigned %d distinct probes, want %d", len(seen), want)
	}
}

func TestScheduleBalancesBetterThanRandomPlacement(t *testing.T) {
	r := xrand.New(5)
	sizes, freqs := skewedWorkload(r, 64)
	zq := xrand.NewZipf(64, 1.0)
	filtered := make([][]int32, 200)
	for qi := range filtered {
		picked := map[int]bool{}
		for len(picked) < 8 {
			picked[zq.Sample(r)] = true
		}
		for c := range picked {
			filtered[qi] = append(filtered[qi], int32(c))
		}
	}
	smart := ScheduleWeighted(filtered, sizes, 0, Place(sizes, freqs, 16, nil, DefaultParams()))
	naive := ScheduleWeighted(filtered, sizes, 0, RandomPlacement(sizes, 16, 5))
	if smart.BalanceRatio() >= naive.BalanceRatio() {
		t.Errorf("UpANNS schedule ratio %v not better than naive %v",
			smart.BalanceRatio(), naive.BalanceRatio())
	}
	if smart.BalanceRatio() > 2.0 {
		t.Errorf("UpANNS schedule ratio %v, expected near 1", smart.BalanceRatio())
	}
}

func TestScheduleEmptyBatch(t *testing.T) {
	p := Place([]int{10}, []float64{1}, 2, nil, DefaultParams())
	a := ScheduleWeighted(nil, []int{10}, 0, p)
	if a.BalanceRatio() != 1 {
		t.Errorf("empty batch ratio %v", a.BalanceRatio())
	}
}

func TestSchedulePropertyAllAssigned(t *testing.T) {
	f := func(seed uint32) bool {
		r := xrand.New(uint64(seed))
		m := r.Intn(30) + 4
		ndpu := r.Intn(8) + 2
		sizes := make([]int, m)
		freqs := make([]float64, m)
		for i := range sizes {
			sizes[i] = r.Intn(100) + 1
			freqs[i] = r.Float64()*5 + 0.1
		}
		p := Place(sizes, freqs, ndpu, nil, DefaultParams())
		nq := r.Intn(20) + 1
		filtered := make([][]int32, nq)
		total := 0
		for qi := range filtered {
			np := r.Intn(m/2) + 1
			order := perm(r, m)
			for _, c := range order[:np] {
				filtered[qi] = append(filtered[qi], int32(c))
				total++
			}
		}
		a := ScheduleWeighted(filtered, sizes, 0, p)
		got := 0
		for _, tasks := range a.PerDPU {
			got += len(tasks)
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedule(b *testing.B) {
	r := xrand.New(1)
	sizes, freqs := skewedWorkload(r, 4096)
	p := Place(sizes, freqs, 896, nil, DefaultParams())
	filtered := make([][]int32, 1000)
	zq := xrand.NewZipf(4096, 1.0)
	for qi := range filtered {
		picked := map[int]bool{}
		for len(picked) < 32 {
			picked[zq.Sample(r)] = true
		}
		for c := range picked {
			filtered[qi] = append(filtered[qi], int32(c))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScheduleWeighted(filtered, sizes, 0, p)
	}
}

func TestPlaceTerminatesUnderTightCapacity(t *testing.T) {
	// Regression: extreme replication demand against a hard size cap must
	// not loop forever — extra replicas are forgone, coverage preserved.
	sizes := []int{5000, 10, 10, 10}
	freqs := []float64{1000, 1, 1, 1} // wants far more replicas than fit
	params := DefaultParams()
	params.MaxDPUSize = 6000 // each DPU holds at most one copy of cluster 0
	done := make(chan *Placement, 1)
	go func() { done <- Place(sizes, freqs, 4, nil, params) }()
	select {
	case p := <-done:
		for c := range sizes {
			if len(p.Replicas[c]) == 0 {
				t.Fatalf("cluster %d lost coverage", c)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Place did not terminate under tight capacity")
	}
}

func TestPlaceBenchWorkloadTerminates(t *testing.T) {
	// The exact shape that exposed the hang: 4096 skewed clusters on 896
	// DPUs with heavy replication demand.
	if testing.Short() {
		t.Skip("large in -short mode")
	}
	r := xrand.New(1)
	sizes, freqs := skewedWorkload(r, 4096)
	done := make(chan *Placement, 1)
	go func() { done <- Place(sizes, freqs, 896, nil, DefaultParams()) }()
	select {
	case p := <-done:
		if maxLoadRatio(p) > 5 {
			t.Errorf("load ratio %v suspiciously high", maxLoadRatio(p))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Place did not terminate on the benchmark workload")
	}
}

// TestHotSet pins the budgeted hot-set selection: highest-frequency
// clusters first, never over budget, zero-frequency clusters excluded,
// and a too-big cluster skipped without ending the sweep.
func TestHotSet(t *testing.T) {
	sizes := []int64{100, 400, 50, 300, 200}
	freqs := []float64{5, 4, 3, 2, 0}

	got := HotSet(sizes, freqs, 550)
	want := []int32{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("HotSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HotSet = %v, want %v", got, want)
		}
	}

	// Cluster 1 (400B) does not fit in 250B; the sweep keeps going and
	// picks the smaller high-frequency clusters around it.
	got = HotSet(sizes, freqs, 250)
	want = []int32{0, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("HotSet(250) = %v, want %v", got, want)
	}

	if got := HotSet(sizes, freqs, 0); got != nil {
		t.Fatalf("zero budget pinned %v", got)
	}
	// Cluster 4 has frequency 0: never pinned, whatever the budget.
	for _, c := range HotSet(sizes, freqs, 1<<30) {
		if c == 4 {
			t.Fatal("zero-frequency cluster pinned")
		}
	}
}
