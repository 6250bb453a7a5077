package mutable_test

import (
	"bytes"
	"testing"

	"repro/internal/mutable"
	"repro/internal/topk"
)

// TestRoundTripWithPendingOverlay persists an index that still carries
// uncompacted logs and tombstones and checks the restored copy answers
// identically and resumes the overlay exactly where it was.
func TestRoundTripWithPendingOverlay(t *testing.T) {
	base := gaussMatrix(2000, testDim, 21)
	u := buildUpdatable(t, base, 0)

	inserts := gaussMatrix(150, testDim, 210)
	for i := 0; i < inserts.Rows; i++ {
		if err := upsertOne(u, int64(40_000+i), inserts.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 60; id++ {
		u.Remove([]int64{id})
	}
	// An upsert chain so sequence ordering matters in the stream.
	if err := upsertOne(u, 40_000, gaussMatrix(1, testDim, 211).Row(0)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := u.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := mutable.Read(bytes.NewReader(buf.Bytes()), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	so, sr := u.Stats(), restored.Stats()
	if sr.Epoch != so.Epoch || sr.PendingLog != so.PendingLog || sr.Tombstones != so.Tombstones || sr.BaseVectors != so.BaseVectors {
		t.Fatalf("restored stats %+v != original %+v", sr, so)
	}
	if sr.PendingLog == 0 || sr.Tombstones == 0 {
		t.Fatal("round trip exercised no pending overlay")
	}

	queries := gaussMatrix(25, testDim, 212)
	for qi := 0; qi < queries.Rows; qi++ {
		a := searchOne(t, u, queries.Row(qi))
		b := searchOne(t, restored, queries.Row(qi))
		assertSameResults(t, qi, a, b)
	}

	// The restored overlay must keep working: writes and compaction.
	restored.Remove([]int64{40_001})
	if hasID(searchOne(t, restored, inserts.Row(1)), 40_001) {
		t.Fatal("delete after restore not applied")
	}
	if _, err := restored.Compact(true); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.PendingLog != 0 || st.Tombstones != 0 {
		t.Fatalf("restored index did not compact: %+v", st)
	}
}

// TestRoundTripCleanIndex covers the no-overlay case (fresh or just
// compacted): the stream still round-trips and searches agree.
func TestRoundTripCleanIndex(t *testing.T) {
	base := gaussMatrix(1200, testDim, 22)
	u := buildUpdatable(t, base, 0)

	var buf bytes.Buffer
	if _, err := u.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := mutable.Read(bytes.NewReader(buf.Bytes()), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	q := gaussMatrix(10, testDim, 220)
	for qi := 0; qi < q.Rows; qi++ {
		assertSameResults(t, qi, searchOne(t, u, q.Row(qi)), searchOne(t, restored, q.Row(qi)))
	}
}

// TestSchemaWriteToRejected pins the loud failure for tagged
// deployments: the state format carries no attributes, so persisting one
// would restore an index whose filtered searches see no pre-restart tags.
func TestSchemaWriteToRejected(t *testing.T) {
	u, _ := buildFiltered(t, 200)
	var buf bytes.Buffer
	if _, err := u.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo accepted a deployment with an attribute schema")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := mutable.Read(bytes.NewReader([]byte("UPIX????")), testConfig(0)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := mutable.Read(bytes.NewReader(nil), testConfig(0)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func assertSameResults(t *testing.T, qi int, a, b []topk.Candidate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
	}
	ad := map[int64]float32{}
	for _, c := range a {
		ad[c.ID] = c.Dist
	}
	for _, c := range b {
		d, ok := ad[c.ID]
		if !ok {
			t.Fatalf("query %d: id %d only in one result set", qi, c.ID)
		}
		if d != c.Dist {
			t.Fatalf("query %d id %d: dist %v vs %v", qi, c.ID, d, c.Dist)
		}
	}
}
