package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ivfpq"
	"repro/internal/metrics"
	"repro/internal/mutable"
	"repro/internal/pim"
	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// The updates experiment measures the streaming-update subsystem
// (internal/mutable) under a churn cycle — 20% of the corpus inserted,
// 10% deleted — applied concurrently with closed-loop readers:
//
//   - recall stability: recall@k against exact ground truth over the
//     *live* set, before churn, at the end of each write-rate phase, and
//     after the final compaction;
//   - read tail latency vs write rate: per-phase read p50/p95/p99, with
//     the no-write phase as the baseline readers must stay within 3x of
//     while compactions run underneath;
//   - compaction pause profile: epoch count and per-compaction durations
//     (reads never pause — old epochs keep serving during a rebuild — so
//     "pause" shows up only as CPU contention in the read tail);
//   - rebuild fidelity: after the final compaction the folded index must
//     match a fresh full rebuild of the live set. "Rebuild" follows the
//     paper's Section 4.1.2 / core.Rebuild semantics: full data
//     relocation with the trained quantizers (quantizers are not
//     retrained online); a fully retrained rebuild is also reported.

// updatesClients is the closed-loop reader count per phase.
const updatesClients = 4

// updatesWriteBatch is the writer's application batch size.
const updatesWriteBatch = 32

// UpdatesPhase is one write-rate operating point of the churn run.
type UpdatesPhase struct {
	Name string
	// WriteBudget is the number of write ops this phase applies; 0 means
	// a read-only phase.
	WriteBudget int
	// Pause is the writer's sleep between application batches; longer
	// pauses mean a lower write rate.
	Pause time.Duration
	// MinReads is the per-client read floor: read-only phases do exactly
	// this many, write phases at least this many (and keep reading until
	// the writer finishes), so tail quantiles always have samples.
	MinReads int
}

// UpdatesPointArtifact is one phase's machine-readable measurement.
type UpdatesPointArtifact struct {
	Name         string  `json:"name"`
	Writes       int     `json:"writes"`
	WritesPerSec float64 `json:"writes_per_sec"`
	Reads        int     `json:"reads"`
	P50          float64 `json:"read_p50_seconds"`
	P95          float64 `json:"read_p95_seconds"`
	P99          float64 `json:"read_p99_seconds"`
	Recall       float64 `json:"recall_at_end"`
	Epochs       uint64  `json:"epochs_at_end"`
}

// UpdatesArtifact is the experiment's machine-readable result
// (BENCH_updates.json); Violations makes it self-checking.
type UpdatesArtifact struct {
	BaseN   int `json:"base_n"`
	K       int `json:"k"`
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`

	Points []UpdatesPointArtifact `json:"points"`

	RecallBefore    float64 `json:"recall_before_churn"`
	RecallFinal     float64 `json:"recall_after_final_compaction"`
	RecallRebuild   float64 `json:"recall_fresh_rebuild"`
	RecallRetrained float64 `json:"recall_retrained_rebuild"`

	Epochs          uint64  `json:"epochs"`
	Compactions     uint64  `json:"compactions"`
	CompactMeanSecs float64 `json:"compaction_mean_seconds"`
	CompactMaxSecs  float64 `json:"compaction_max_seconds"`
	FoldedEntries   uint64  `json:"folded_entries"`
}

// Violations returns the acceptance-shape regressions this run exhibits
// (empty = healthy). The shapes mirror the experiment's contract: recall
// under churn holds a floor, the folded index matches a fresh rebuild,
// the read tail survives concurrent compaction, and compaction actually
// ran.
func (a *UpdatesArtifact) Violations() []string {
	var v []string
	if a.Compactions == 0 {
		v = append(v, "updates: no compaction ran during the churn cycle")
	}
	if diff := abs(a.RecallFinal - a.RecallRebuild); diff > 0.02 {
		v = append(v, fmt.Sprintf("updates: post-churn recall %.4f deviates %.4f (>0.02) from fresh rebuild %.4f",
			a.RecallFinal, diff, a.RecallRebuild))
	}
	// The churn phases are bracketed by no-write baselines (see
	// UpdatesPhases); the worse bracket is the fair denominator under
	// ambient machine load.
	baselineP99 := 0.0
	nBaselines := 0
	for _, p := range a.Points {
		if p.Writes == 0 {
			nBaselines++
			if p.P99 > baselineP99 {
				baselineP99 = p.P99
			}
		}
	}
	if nBaselines == 0 {
		v = append(v, "updates: no no-write baseline phase measured")
		return v
	}
	floor := a.RecallBefore - 0.05
	for _, p := range a.Points {
		if p.Writes == 0 {
			continue
		}
		if p.Recall < floor {
			v = append(v, fmt.Sprintf("updates[%s]: recall under churn %.4f below floor %.4f", p.Name, p.Recall, floor))
		}
		if baselineP99 > 0 && p.P99 > 3*baselineP99 {
			v = append(v, fmt.Sprintf("updates[%s]: read p99 %.6fs exceeds 3x no-write baseline %.6fs",
				p.Name, p.P99, baselineP99))
		}
	}
	if a.RecallFinal < floor {
		v = append(v, fmt.Sprintf("updates: final recall %.4f below floor %.4f", a.RecallFinal, floor))
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// UpdatesPhases returns the default sweep: the churn cycle split across
// a paced and a full-speed write phase, *bracketed* by two no-write
// baselines. The read-tail acceptance compares churn p99 against the
// worse of the two baselines: ambient machine load (CI neighbors, other
// test packages running in parallel) slows the brackets and the churn
// phases alike and cancels out of the ratio, while a genuine
// compaction-induced stall inflates only the churn phases and still
// trips the bound.
func UpdatesPhases(totalWrites int) []UpdatesPhase {
	half := totalWrites / 2
	return []UpdatesPhase{
		{Name: "no writes (baseline)", MinReads: 120},
		{Name: "paced writes", WriteBudget: half, Pause: 2 * time.Millisecond, MinReads: 60},
		{Name: "full-speed writes", WriteBudget: totalWrites - half, MinReads: 60},
		{Name: "no writes (post churn)", MinReads: 120},
	}
}

// Updates runs the experiment and renders the report.
func (c *Context) Updates() (*Report, error) {
	art, err := c.UpdatesRun()
	if err != nil {
		return nil, err
	}
	return updatesReport(art), nil
}

// UpdatesRun executes the churn cycle and returns the raw artifact
// (tests assert on it directly; Updates renders it).
func (c *Context) UpdatesRun() (*UpdatesArtifact, error) {
	s := c.getSetup(dataset.SIFT1B, c.O.IVFGrid[0])
	nprobe := c.O.NProbeGrid[len(c.O.NProbeGrid)-1]
	k := c.O.K

	// The shared streaming-deployment policy (nprobe, K slack) — the
	// same config cmd/upanns-serve deploys, so the benchmark measures the
	// deployment the server runs; its Engine also configures the
	// fresh-rebuild reference engines below. The compactor polls fast so
	// tiny-scale churn still triggers epochs mid-phase.
	mcfg := mutable.ServingConfig(nprobe, k, c.O.DPUs, c.O.Seed)
	mcfg.CheckInterval = 2 * time.Millisecond
	ecfg := mcfg.Engine

	u, err := mutable.New(s.ix, s.freqs, mcfg)
	if err != nil {
		return nil, err
	}
	defer u.Close()

	// Live ground truth: id -> vector, updated alongside the op stream.
	live := make(map[int64][]float32, s.ds.Vectors.Rows)
	for i := 0; i < s.ds.Vectors.Rows; i++ {
		live[int64(i)] = s.ds.Vectors.Row(i)
	}

	// The churn cycle: ~20% of the corpus inserted, ~10% deleted (the
	// mixed stream draws deletes as 1/3 of writes).
	n := s.ds.Vectors.Rows
	totalWrites := (3 * n) / 10
	insertPool := dataset.Generate(dataset.SIFT1B, totalWrites, c.O.Seed+101).Vectors
	baseIDs := make([]int64, n)
	for i := range baseIDs {
		baseIDs[i] = int64(i)
	}
	stream := workload.NewMixedStream(
		workload.MixedConfig{WriteFraction: 1, DeleteShare: 1.0 / 3, QuerySkew: 1},
		s.queries, insertPool, baseIDs, int64(n), c.O.Seed+202)

	art := &UpdatesArtifact{BaseN: n, K: k}
	art.RecallBefore, err = c.measureRecall(u, s.queries, live, k)
	if err != nil {
		return nil, err
	}

	for _, ph := range UpdatesPhases(totalWrites) {
		pt, err := c.runUpdatesPhase(u, s, stream, live, ph, k)
		if err != nil {
			return nil, fmt.Errorf("updates phase %q: %w", ph.Name, err)
		}
		art.Points = append(art.Points, pt)
	}
	art.Inserts = int(u.Stats().Inserts)
	art.Deletes = int(u.Stats().Deletes)

	// Final compaction folds whatever overlay remains, then the folded
	// epoch is compared against fresh rebuilds of the live set.
	if _, err := u.Compact(true); err != nil {
		return nil, err
	}
	if art.RecallFinal, err = c.measureRecall(u, s.queries, live, k); err != nil {
		return nil, err
	}

	st := u.Stats()
	art.Epochs = st.Epoch
	art.Compactions = st.Compactions
	art.CompactMaxSecs = st.MaxCompactSecs
	if st.Compactions > 0 {
		art.CompactMeanSecs = st.SumCompactSecs / float64(st.Compactions)
	}
	art.FoldedEntries = st.FoldedEntries

	liveIDs, liveMat := liveMatrix(live, s.ds.Vectors.Dim)
	art.RecallRebuild, err = c.rebuildRecall(s.ix.CloneStructure(), liveIDs, liveMat, s, ecfg, k, false)
	if err != nil {
		return nil, err
	}
	art.RecallRetrained, err = c.rebuildRecall(nil, liveIDs, liveMat, s, ecfg, k, true)
	if err != nil {
		return nil, err
	}
	// Exact ground truth for the rebuild recalls is shared via live.
	return art, nil
}

// runUpdatesPhase drives one phase: closed-loop readers (recording read
// latency) while the writer applies its budget from the mixed stream.
func (c *Context) runUpdatesPhase(u *mutable.UpdatableIndex, s *setup, stream *workload.MixedStream, live map[int64][]float32, ph UpdatesPhase, k int) (UpdatesPointArtifact, error) {
	lat := metrics.NewLatencyHistogram()
	var reads atomic.Int64
	var writerDone atomic.Bool
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < updatesClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qs := workload.NewQueryStream(s.queries, 1.0, c.O.Seed+uint64(r)*6131)
			buf := vecmath.NewMatrix(1, s.queries.Dim)
			for i := 0; ; i++ {
				if i >= ph.MinReads && (ph.WriteBudget == 0 || writerDone.Load()) {
					return
				}
				copy(buf.Row(0), qs.Next())
				t0 := time.Now()
				if _, err := u.Search(buf, mutable.SearchOpts{K: k}); err != nil {
					fail(err)
					return
				}
				d := time.Since(t0)
				lat.Observe(d.Seconds())
				// Think for 3x the read: the four readers together offer one
				// core of scan work, so on a small host the tail shows the
				// index's locks and compactions, not the Go scheduler
				// time-slicing readers that never yield.
				time.Sleep(3 * d)
				reads.Add(1)
			}
		}(r)
	}

	writes := 0
	if ph.WriteBudget > 0 {
		ups := make([]int64, 0, updatesWriteBatch)
		upVecs := vecmath.NewMatrix(updatesWriteBatch, s.ds.Vectors.Dim)
		dels := make([]int64, 0, updatesWriteBatch)
		for writes < ph.WriteBudget {
			batch := updatesWriteBatch
			if rem := ph.WriteBudget - writes; rem < batch {
				batch = rem
			}
			ups, dels = ups[:0], dels[:0]
			for i := 0; i < batch; i++ {
				op := stream.Next()
				switch op.Kind {
				case workload.OpUpsert:
					upVecs.SetRow(len(ups), op.Vec)
					ups = append(ups, op.ID)
					live[op.ID] = op.Vec
				case workload.OpDelete:
					dels = append(dels, op.ID)
					delete(live, op.ID)
				}
			}
			// Ids are disjoint across the two runs (upserts mint fresh
			// ids, a batch never deletes an id it just minted... it can,
			// but the delete still logically follows the upsert, and
			// applying upserts first preserves that order).
			if len(ups) > 0 {
				m := vecmath.WrapMatrix(upVecs.Data[:len(ups)*upVecs.Dim], len(ups), upVecs.Dim)
				if err := u.Upsert(ups, m); err != nil {
					fail(err)
					break
				}
			}
			if len(dels) > 0 {
				if err := u.Remove(dels); err != nil {
					fail(err)
					break
				}
			}
			writes += batch
			if ph.Pause > 0 {
				time.Sleep(ph.Pause)
			}
		}
	}
	writerDone.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return UpdatesPointArtifact{}, firstErr
	}

	recall, err := c.measureRecall(u, s.queries, live, k)
	if err != nil {
		return UpdatesPointArtifact{}, err
	}
	snap := lat.Snapshot()
	pt := UpdatesPointArtifact{
		Name:   ph.Name,
		Writes: writes,
		Reads:  int(reads.Load()),
		P50:    snap.P50,
		P95:    snap.P95,
		P99:    snap.P99,
		Recall: recall,
		Epochs: u.Stats().Epoch,
	}
	if writes > 0 && elapsed > 0 {
		pt.WritesPerSec = float64(writes) / elapsed
	}
	return pt, nil
}

// measureRecall computes mean recall@k of the updatable index against
// exact L2 ground truth over the live set.
func (c *Context) measureRecall(u *mutable.UpdatableIndex, queries *vecmath.Matrix, live map[int64][]float32, k int) (float64, error) {
	res, err := u.Search(queries, mutable.SearchOpts{K: k})
	if err != nil {
		return 0, err
	}
	return meanRecall(res, queries, live, k), nil
}

// meanRecall scores approximate results against brute-force exact search
// over the live map.
func meanRecall(res [][]topk.Candidate, queries *vecmath.Matrix, live map[int64][]float32, k int) float64 {
	total := 0.0
	for qi := 0; qi < queries.Rows; qi++ {
		exact := exactTopK(live, queries.Row(qi), k)
		hit := 0
		for _, c := range res[qi] {
			if exact[c.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(k)
	}
	return total / float64(queries.Rows)
}

// exactTopK brute-forces the k nearest live ids for one query.
func exactTopK(live map[int64][]float32, q []float32, k int) map[int64]bool {
	h := topk.NewHeap(k)
	for id, vec := range live {
		h.Push(id, vecmath.L2Squared(q, vec))
	}
	out := make(map[int64]bool, k)
	for _, c := range h.Sorted() {
		out[c.ID] = true
	}
	return out
}

// liveMatrix flattens the live map into an id slice and matrix, sorted by
// id for determinism.
func liveMatrix(live map[int64][]float32, dim int) ([]int64, *vecmath.Matrix) {
	ids := make([]int64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	m := vecmath.NewMatrix(len(ids), dim)
	for i, id := range ids {
		m.SetRow(i, live[id])
	}
	return ids, m
}

// rebuildRecall builds a fresh deployment of the live set and measures
// its recall. With into != nil the trained quantizers are reused (the
// paper's full-relocation rebuild); with retrain the index is trained
// from scratch on the live set.
func (c *Context) rebuildRecall(into *ivfpq.Index, liveIDs []int64, liveMat *vecmath.Matrix, s *setup, ecfg core.Config, k int, retrain bool) (float64, error) {
	var ix *ivfpq.Index
	if retrain {
		ix = ivfpq.Train(liveMat, ivfpq.Params{
			NList: s.ix.NList(), M: s.spec.M, KSub: c.O.KSub, Seed: c.O.Seed + 7, TrainSub: c.O.TrainSub,
		})
	} else {
		ix = into
	}
	ix.Add(liveMat, 0)

	spec := pim.DefaultSpec()
	spec.NumDIMMs = 1
	spec.DPUsPerDIMM = c.O.DPUs
	eng, err := core.Build(ix, pim.NewSystem(spec), nil, ecfg)
	if err != nil {
		return 0, err
	}
	br, err := eng.SearchBatch(s.queries)
	if err != nil {
		return 0, err
	}
	// Row ids map back to original ids through liveIDs; score against the
	// same exact ground truth as the updatable index.
	live := make(map[int64][]float32, len(liveIDs))
	for i, id := range liveIDs {
		live[id] = liveMat.Row(i)
	}
	res := make([][]topk.Candidate, len(br.Results))
	for qi, cands := range br.Results {
		mapped := make([]topk.Candidate, 0, min(k, len(cands)))
		for _, cand := range cands {
			if len(mapped) == k {
				break
			}
			mapped = append(mapped, topk.Candidate{ID: liveIDs[cand.ID], Dist: cand.Dist})
		}
		res[qi] = mapped
	}
	return meanRecall(res, s.queries, live, k), nil
}

// updatesReport renders the artifact as the experiment report.
func updatesReport(a *UpdatesArtifact) *Report {
	rep := &Report{
		ID:       "updates",
		Title:    "Streaming updates: recall stability and read tail under churn",
		Artifact: a,
	}
	t := metrics.NewTable(
		fmt.Sprintf("Churn cycle on %s (N=%d, +%d upserts, -%d deletes, %d readers)",
			dataset.SIFT1B.Name, a.BaseN, a.Inserts, a.Deletes, updatesClients),
		"phase", "writes", "writes/s", "reads", "p50", "p95", "p99", "recall", "epochs")
	for _, p := range a.Points {
		t.AddRow(p.Name,
			fmt.Sprintf("%d", p.Writes),
			metrics.F(p.WritesPerSec),
			fmt.Sprintf("%d", p.Reads),
			metrics.Seconds(p.P50),
			metrics.Seconds(p.P95),
			metrics.Seconds(p.P99),
			fmt.Sprintf("%.4f", p.Recall),
			fmt.Sprintf("%d", p.Epochs))
	}
	rep.Tables = append(rep.Tables, t)

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("recall: %.4f before churn -> %.4f after final compaction; fresh rebuild %.4f, retrained rebuild %.4f",
			a.RecallBefore, a.RecallFinal, a.RecallRebuild, a.RecallRetrained),
		fmt.Sprintf("compaction profile: %d epochs, %d compactions, mean %s, max %s, %d entries folded",
			a.Epochs, a.Compactions,
			metrics.Seconds(a.CompactMeanSecs), metrics.Seconds(a.CompactMaxSecs), a.FoldedEntries),
		"expected shape: churn recall within 0.05 of pre-churn, post-compaction recall within 0.02 of a fresh rebuild, read p99 under 3x the no-write baseline")
	for _, v := range a.Violations() {
		rep.Notes = append(rep.Notes, "VIOLATION: "+v)
	}
	return rep
}
