package dataset

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// uniform32 returns a uniform float32 in [0, 1).
func uniform32(r *xrand.RNG) float32 { return float32(r.Uint64()>>40) / (1 << 24) }

func TestGenerateShapes(t *testing.T) {
	for _, spec := range All() {
		ds := Generate(spec, 500, 1)
		if ds.Vectors.Rows != 500 || ds.Vectors.Dim != spec.Dim {
			t.Errorf("%s: shape %dx%d", spec.Name, ds.Vectors.Rows, ds.Vectors.Dim)
		}
		if spec.Dim%spec.M != 0 {
			t.Errorf("%s: dim %d not divisible by M %d", spec.Name, spec.Dim, spec.M)
		}
		if len(ds.AnchorOf) != 500 {
			t.Errorf("%s: AnchorOf len %d", spec.Name, len(ds.AnchorOf))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SIFT1B, 200, 42)
	b := Generate(SIFT1B, 200, 42)
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != b.Vectors.Data[i] {
			t.Fatalf("vectors differ at %d", i)
		}
	}
}

func TestGenerateSkewedAnchors(t *testing.T) {
	ds := Generate(SPACEV1B, 20000, 7)
	counts := make(map[int32]int)
	for _, a := range ds.AnchorOf {
		counts[a]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	// Fig. 4b shows extreme size skew; with Zipf(1.3) the largest anchor
	// should dwarf the median.
	if sizes[0] < 10*sizes[len(sizes)/2] {
		t.Errorf("insufficient size skew: max %d median %d", sizes[0], sizes[len(sizes)/2])
	}
}

func TestQueriesSkewTowardsPopularAnchors(t *testing.T) {
	ds := Generate(SIFT1B, 5000, 3)
	q := ds.Queries(2000, 3)
	if q.Rows != 2000 || q.Dim != 128 {
		t.Fatalf("query shape %dx%d", q.Rows, q.Dim)
	}
	// Assign each query to its nearest anchor; rank 0 should dominate.
	counts := make([]int, ds.Spec.Anchors)
	for i := 0; i < q.Rows; i++ {
		best, _ := ds.anchors.ArgminL2(q.Row(i))
		counts[best]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if counts[0] < 5*max(counts[50], 1) {
		t.Errorf("query access not skewed: top %d vs rank50 %d", counts[0], counts[50])
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGroundTruthMatchesNaive(t *testing.T) {
	r := xrand.New(5)
	base := vecmath.NewMatrix(300, 8)
	for i := range base.Data {
		base.Data[i] = uniform32(r)
	}
	queries := vecmath.NewMatrix(10, 8)
	for i := range queries.Data {
		queries.Data[i] = uniform32(r)
	}
	gt := GroundTruth(base, queries, 5)
	for qi := 0; qi < queries.Rows; qi++ {
		// Naive single-threaded reference.
		h := topk.NewHeap(5)
		for i := 0; i < base.Rows; i++ {
			h.Push(int64(i), vecmath.L2Squared(queries.Row(qi), base.Row(i)))
		}
		want := h.Sorted()
		if len(gt[qi]) != 5 {
			t.Fatalf("query %d: got %d results", qi, len(gt[qi]))
		}
		for i := range want {
			if gt[qi][i] != want[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, gt[qi][i], want[i])
			}
		}
	}
}

func TestRecallPerfectAndZero(t *testing.T) {
	truth := [][]topk.Candidate{{{ID: 1, Dist: 0.1}, {ID: 2, Dist: 0.2}}}
	if r := Recall(truth, truth); r != 1 {
		t.Errorf("self recall = %v", r)
	}
	other := [][]topk.Candidate{{{ID: 8, Dist: 0.1}, {ID: 9, Dist: 0.2}}}
	if r := Recall(other, truth); r != 0 {
		t.Errorf("disjoint recall = %v", r)
	}
}

func TestRecallPartial(t *testing.T) {
	truth := [][]topk.Candidate{{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}}
	got := [][]topk.Candidate{{{ID: 1}, {ID: 2}, {ID: 9}, {ID: 8}}}
	if r := Recall(got, truth); r != 0.5 {
		t.Errorf("recall = %v, want 0.5", r)
	}
}

func TestFvecsRoundTrip(t *testing.T) {
	r := xrand.New(9)
	m := vecmath.NewMatrix(17, 13)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFvecs(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 17 || got.Dim != 13 {
		t.Fatalf("shape %dx%d", got.Rows, got.Dim)
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("data differs at %d", i)
		}
	}
}

func TestFvecsMaxRows(t *testing.T) {
	m := vecmath.NewMatrix(10, 4)
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFvecs(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 3 {
		t.Fatalf("rows = %d, want 3", got.Rows)
	}
}

func TestIvecsRoundTrip(t *testing.T) {
	lists := [][]int32{{1, 2, 3}, {7}, {9, 10}}
	var buf bytes.Buffer
	if err := WriteIvecs(&buf, lists); err != nil {
		t.Fatal(err)
	}
	// Each list is its little-endian int32 length, then its ids.
	var got []int32
	for b := buf.Bytes(); len(b) >= 4; b = b[4:] {
		got = append(got, int32(binary.LittleEndian.Uint32(b)))
	}
	if want := []int32{3, 1, 2, 3, 1, 7, 2, 9, 10}; !slices.Equal(got, want) || buf.Len()%4 != 0 {
		t.Fatalf("ivecs stream %v (%d bytes), want %v", got, buf.Len(), want)
	}
}

func TestReadFvecsRejectsGarbage(t *testing.T) {
	if _, err := ReadFvecs(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), 0); err == nil {
		t.Fatal("no error for negative dim")
	}
	if _, err := ReadFvecs(bytes.NewReader([]byte{4, 0, 0, 0, 1, 2}), 0); err == nil {
		t.Fatal("no error for truncated vector")
	}
}

func TestReadFvecsEmptyFile(t *testing.T) {
	if _, err := ReadFvecs(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("no error for empty file")
	}
}
