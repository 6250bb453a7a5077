package mutable_test

// Epoch-swap race coverage: these tests exist to run under -race (CI runs
// the whole suite with it) and to pin the consistency contract — readers
// always observe a consistent (epoch, overlay) pair, acknowledged writes
// are never lost across a swap, and a returned Delete is never un-done by
// a concurrent compaction.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/tier"
	"repro/internal/vecmath"
)

// startSwapper force-publishes epochs in a loop until stop is closed.
func startSwapper(t *testing.T, u *mutable.UpdatableIndex, stop chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := u.Compact(true); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	return &wg
}

// TestSearchDuringSwap runs four readers against one index while a fifth
// goroutine force-publishes epochs back to back and a sixth upserts and
// deletes — nothing serialises base scans any more, so every reader
// overlaps swaps and writes freely. Every search must return a full
// result set in which every hit is live at its read point (no id whose
// Delete returned before the search began), and no acknowledged entry may
// be lost while it is folded from the overlay into an epoch: the sentinel
// and every write acknowledged before the search and not yet being
// deleted after it must be found.
func TestSearchDuringSwap(t *testing.T) {
	base := gaussMatrix(1000, testDim, 11)
	ix := ivfpq.Train(base, ivfpq.Params{NList: testNList, M: 4, KSub: 16, Seed: 7})
	ix.Add(base, 0)
	cfg := testConfig(0)
	cfg.Engine.K = 2 * testK // the serving slack: pending deletes must not starve results
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	sentinel := gaussMatrix(1, testDim, 400).Row(0)
	const sentinelID = int64(900_000)
	if err := upsertOne(u, sentinelID, sentinel); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	swapWG := startSwapper(t, u, stop)

	// The writer stages near-copies of the sentinel under fresh ids
	// firstID, firstID+1, ... and deletes each one live entries later, so
	// the live ones always rank inside the top k. The three counters
	// bracket every write: inserted is stored after Insert returns,
	// deleting before Delete is called, deleted after it returns.
	const (
		firstID = int64(910_000)
		live    = 4
	)
	var inserted, deleting, deleted atomic.Int64
	for _, c := range []*atomic.Int64{&inserted, &deleting, &deleted} {
		c.Store(firstID - 1)
	}
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		noise := gaussMatrix(64, testDim, 401)
		vec := make([]float32, testDim)
		for id := firstID; ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range vec {
				vec[j] = sentinel[j] + 1e-3*noise.Row(int(id) % noise.Rows)[j]
			}
			if err := upsertOne(u, id, vec); err != nil {
				t.Error(err)
				return
			}
			inserted.Store(id)
			if victim := id - live; victim >= firstID {
				// At most `live` tombstones await a fold, so dead base
				// copies never crowd the sentinel's neighbourhood out of
				// the base fetch depth.
				for u.Stats().Tombstones >= live {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
				deleting.Store(victim)
				u.Remove([]int64{victim})
				deleted.Store(victim)
			}
		}
	}()

	// Readers keep going until several swaps and deletes have overlapped
	// them, so the race window is never left untested on a fast machine.
	overlapped := func() bool { return u.Stats().Epoch >= 3 && deleted.Load() >= firstID+2*live }
	deadline := time.Now().Add(10 * time.Second)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			q := vecmath.WrapMatrix(sentinel, 1, testDim)
			for i := 0; i < 100 || (!overlapped() && time.Now().Before(deadline)); i++ {
				ackedBefore, deadBefore := inserted.Load(), deleted.Load()
				res, err := u.Search(q, mutable.SearchOpts{K: testK})
				if err != nil {
					t.Error(err)
					return
				}
				dyingAfter := deleting.Load()
				if len(res[0]) != testK {
					t.Errorf("reader %d: %d results, want %d", r, len(res[0]), testK)
					return
				}
				if !hasID(res[0], sentinelID) {
					t.Errorf("reader %d: sentinel lost during swap", r)
					return
				}
				for _, c := range res[0] {
					if c.ID >= firstID && c.ID <= deadBefore {
						t.Errorf("reader %d: id %d returned after its delete was acknowledged", r, c.ID)
						return
					}
				}
				for id := dyingAfter + 1; id <= ackedBefore; id++ {
					if !hasID(res[0], id) {
						t.Errorf("reader %d: acknowledged write %d lost (epoch %d)", r, id, u.Stats().Epoch)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writerWG.Wait()
	swapWG.Wait()
	if !overlapped() {
		t.Fatal("too few epoch swaps or deletes overlapped the readers; race window untested")
	}
}

// TestInsertDuringCompaction inserts concurrently with forced
// compactions; afterwards every acknowledged insert must be findable —
// whether it was folded into an epoch or still lives in the overlay.
func TestInsertDuringCompaction(t *testing.T) {
	base := gaussMatrix(1000, testDim, 12)
	u := buildUpdatable(t, base, 0)

	stop := make(chan struct{})
	swapWG := startSwapper(t, u, stop)

	const writers = 4
	const perWriter = 100
	vecs := gaussMatrix(writers*perWriter, testDim, 500)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := w*perWriter + i
				if err := upsertOne(u, int64(100_000+row), vecs.Row(row)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swapWG.Wait()

	if u.Stats().Compactions == 0 {
		t.Fatal("no compaction overlapped the writers")
	}
	for row := 0; row < writers*perWriter; row++ {
		id := int64(100_000 + row)
		if !hasID(searchOne(t, u, vecs.Row(row)), id) {
			t.Fatalf("insert %d lost across concurrent compactions", id)
		}
	}
}

// TestDeleteThenSearchSameKey checks read-your-delete under concurrent
// compaction: once Delete returns, the id must never appear again, even
// while epochs swap underneath the readers.
func TestDeleteThenSearchSameKey(t *testing.T) {
	base := gaussMatrix(1000, testDim, 13)
	u := buildUpdatable(t, base, 0)

	stop := make(chan struct{})
	swapWG := startSwapper(t, u, stop)

	const keys = 6
	var wg sync.WaitGroup
	for w := 0; w < keys; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns one key and cycles insert -> verify ->
			// delete -> verify-absent against its own vector.
			id := int64(700_000 + w)
			vec := gaussMatrix(1, testDim, uint64(600+w)).Row(0)
			q := vecmath.WrapMatrix(vec, 1, testDim)
			for i := 0; i < 15; i++ {
				if err := upsertOne(u, id, vec); err != nil {
					t.Error(err)
					return
				}
				res, err := u.Search(q, mutable.SearchOpts{K: testK})
				if err != nil {
					t.Error(err)
					return
				}
				if !hasID(res[0], id) {
					t.Errorf("key %d: insert not visible (round %d)", id, i)
					return
				}
				u.Remove([]int64{id})
				res, err = u.Search(q, mutable.SearchOpts{K: testK})
				if err != nil {
					t.Error(err)
					return
				}
				if hasID(res[0], id) {
					t.Errorf("key %d: visible after delete (round %d)", id, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swapWG.Wait()

	if u.Stats().Compactions == 0 {
		t.Fatal("no compaction overlapped the delete/search cycles")
	}
}

// TestTieredSearchDuringSwapAndRebalance hammers the tiered read path
// while three things churn underneath it: the hot set rebalances every
// millisecond under a budget too small for the corpus (constant
// promotion/eviction), the prefetcher races the scans, and forced
// compactions rewrite the epoch image and delete the old file. Every
// search must stay full-sized and keep the sentinel; epoch pinning is
// what keeps a retiring image alive under the readers' feet.
func TestTieredSearchDuringSwapAndRebalance(t *testing.T) {
	base := gaussMatrix(1500, testDim, 14)
	cfg := tieredConfig(t, 0, tier.Config{
		HotBytes:        4 << 10, // a handful of clusters; rebalances always churn
		PrefetchWorkers: 2,
		PrefetchDepth:   4, // tiny queue; overflow drops exercised under load
		RebalanceEvery:  time.Millisecond,
	})
	u := buildTiered(t, base, cfg)

	sentinel := gaussMatrix(1, testDim, 410).Row(0)
	const sentinelID = int64(920_000)
	if err := upsertOne(u, sentinelID, sentinel); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	var swaps atomic.Uint64
	go func() {
		defer churnWG.Done()
		churn := gaussMatrix(64, testDim, 411)
		next := int64(930_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < churn.Rows; i++ {
				if err := upsertOne(u, next, churn.Row(i)); err != nil {
					t.Error(err)
					return
				}
				next++
			}
			// Each swap folds the tiered base by streaming the pinned old
			// image and then deletes it once readers let go.
			if _, err := u.Compact(true); err != nil {
				t.Error(err)
				return
			}
			swaps.Add(1)
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			q := vecmath.WrapMatrix(sentinel, 1, testDim)
			for i := 0; i < 60; i++ {
				res, err := u.Search(q, mutable.SearchOpts{K: testK})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res[0]) != testK {
					t.Errorf("reader %d: %d results, want %d", r, len(res[0]), testK)
					return
				}
				if !hasID(res[0], sentinelID) {
					t.Errorf("reader %d: sentinel lost during tiered swap", r)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	churnWG.Wait()
	if swaps.Load() == 0 {
		t.Fatal("no epoch swap overlapped the tiered readers; race window untested")
	}
}
