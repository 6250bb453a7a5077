package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// obsPlaneAllocBudget is the per-request allocation cost of the tracer,
// SLO tracker and cost ring on Server.Search, measured at 35 (plane off
// 14 allocs/request, plane on 49) with go 1.24 on linux/amd64. It is a
// count, not a wall-clock ratio, so it is exact on any host: one extra
// allocation per request on the plane-on path fails the gate.
const obsPlaneAllocBudget = 35

// raceAllocSlack widens the budget under the race detector, where
// sync.Pool drops a share of its Puts at random, so pooled buffers are
// reallocated and the plane-on path measures one more allocation per
// request (36). race_test.go sets it.
var raceAllocSlack = 0

// searchAllocs serves one request at a time the way the /search handler
// does (start a trace, search under it, finish it, record the SLO
// outcome) and returns the allocations per request. Nil planes are the
// plane-off path: every obs call is then a nil-receiver no-op.
func searchAllocs(t *testing.T, costs *obs.CostTracker, tracer *obs.Tracer, slo *obs.SLOTracker) float64 {
	t.Helper()
	const dim = 8
	s, err := NewServer(Config{K: 1, MaxBatch: 8, Costs: costs}, echoBackend(dim, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := vec(dim, 3)
	var searchErr error
	search := func() {
		tr := tracer.StartRemote("", "serve.request")
		start := time.Now()
		_, err := s.Search(obs.WithTrace(context.Background(), tr), v)
		tracer.Finish(tr, err)
		slo.Record(err != nil, false, time.Since(start))
		if err != nil {
			searchErr = err
		}
	}
	search() // warm the worker's dispatch scratch
	allocs := testing.AllocsPerRun(200, search)
	if searchErr != nil {
		t.Fatalf("search: %v", searchErr)
	}
	return allocs
}

// TestObsPlaneAllocationBudget gates what the observability plane costs a
// request in allocations: tracer + SLO + cost on, against all three off,
// over otherwise identical servers and backends.
func TestObsPlaneAllocationBudget(t *testing.T) {
	off := searchAllocs(t, nil, nil, nil)
	on := searchAllocs(t, obs.NewCostTracker(8), obs.NewTracer(obs.TracerConfig{}), obs.NewSLOTracker(obs.SLOConfig{Name: "s0"}))
	t.Logf("allocs/request: plane off %.0f, plane on %.0f, delta %.0f", off, on, on-off)
	if budget := obsPlaneAllocBudget + raceAllocSlack; on-off > float64(budget) {
		t.Fatalf("observability plane costs %.0f allocs/request (off %.0f, on %.0f), budget %d",
			on-off, off, on, budget)
	}
}
