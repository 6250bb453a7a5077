package ivfpq

import (
	"bytes"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	ix, data := buildIndex(t, 31, 3000, 32, 12, 8)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != ix.Dim || got.NList() != ix.NList() || got.NTotal != ix.NTotal {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			got.Dim, got.NList(), got.NTotal, ix.Dim, ix.NList(), ix.NTotal)
	}
	if got.QScale != ix.QScale || got.PQ.KSub != ix.PQ.KSub {
		t.Fatal("scalar fields mismatch")
	}
	// Loaded index must return byte-identical search results.
	for qi := 0; qi < 20; qi++ {
		q := data.Row(qi)
		a, _ := ix.Search(q, SearchOpts{NProbe: 4, K: 10})
		b, _ := got.Search(q, SearchOpts{NProbe: 4, K: 10})
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
		aq, _ := ix.Search(q, SearchOpts{NProbe: 4, K: 10, Quantized: true})
		bq, _ := got.Search(q, SearchOpts{NProbe: 4, K: 10, Quantized: true})
		for i := range aq {
			if aq[i] != bq[i] {
				t.Fatalf("query %d quantized rank %d differs", qi, i)
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE	aaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		"truncated": []byte("UPIX\x01\x00\x00\x00"),
	}
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestReadIndexRejectsBadVersion(t *testing.T) {
	ix, _ := buildIndex(t, 33, 500, 8, 4, 4)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte
	if _, err := ReadIndex(bytes.NewReader(b)); err == nil {
		t.Fatal("no error for future version")
	}
}

func TestReadIndexRejectsTruncatedLists(t *testing.T) {
	ix, _ := buildIndex(t, 35, 500, 8, 4, 4)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadIndex(bytes.NewReader(b)); err == nil {
		t.Fatal("no error for truncated list data")
	}
}

// TestFoldedIndexRoundTrip serializes an index produced the way epoch
// compaction produces one — CloneStructure plus AppendEncoded of
// surviving base entries and staged log entries, with tombstoned rows
// dropped (leaving arbitrary id gaps and some empty lists) — and checks
// the stream round-trips with byte-identical search results.
func TestFoldedIndexRoundTrip(t *testing.T) {
	base, data := buildIndex(t, 77, 2000, 32, 8, 8)
	m := base.PQ.M

	// Fold: drop every third vector (tombstones), keep the rest, then
	// append "log" entries re-encoded from fresh vectors under high ids.
	folded := base.CloneStructure()
	for c := 0; c < base.NList(); c++ {
		l := &base.Lists[c]
		for i := 0; i < l.Len(); i++ {
			if l.IDs[i]%3 == 0 {
				continue
			}
			folded.AppendEncoded(int32(c), l.IDs[i], l.Code(i, m))
		}
	}
	inserts := testData(78, 100, 32)
	code, resid := make([]uint8, m), make([]float32, folded.Dim)
	for i := 0; i < inserts.Rows; i++ {
		cl := folded.EncodeVectorInto(code, resid, inserts.Row(i))
		folded.AppendEncoded(cl, int64(1_000_000+i), code)
	}
	wantTotal := int64(0)
	for c := range folded.Lists {
		wantTotal += int64(folded.Lists[c].Len())
	}
	if folded.NTotal != wantTotal {
		t.Fatalf("NTotal %d != summed list lengths %d", folded.NTotal, wantTotal)
	}

	var buf bytes.Buffer
	if _, err := folded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NTotal != folded.NTotal || got.NList() != folded.NList() {
		t.Fatalf("shape mismatch after round trip: %d/%d vs %d/%d",
			got.NTotal, got.NList(), folded.NTotal, folded.NList())
	}
	for qi := 0; qi < 20; qi++ {
		q := data.Row(qi)
		a, _ := folded.Search(q, SearchOpts{NProbe: 4, K: 10, Quantized: true})
		b, _ := got.Search(q, SearchOpts{NProbe: 4, K: 10, Quantized: true})
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
		// No tombstoned id may survive the fold.
		for _, cand := range a {
			if cand.ID < 1_000_000 && cand.ID%3 == 0 {
				t.Fatalf("query %d: tombstoned id %d resurfaced", qi, cand.ID)
			}
		}
	}
}

// --- cluster-image (WriteImage/OpenImage) coverage ---

// writeImage serializes ix's image into memory and opens it back.
func writeImage(t *testing.T, ix *Index) ([]byte, *Image) {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteImage reported %d bytes, wrote %d", n, buf.Len())
	}
	b := buf.Bytes()
	im, err := OpenImage(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return b, im
}

func TestImageRoundTrip(t *testing.T) {
	ix, _ := buildIndex(t, 41, 3000, 32, 16, 8)
	_, im := writeImage(t, ix)

	if im.NList() != ix.NList() || im.NTotal() != ix.NTotal || im.M() != ix.PQ.M {
		t.Fatalf("image shape %d/%d/%d, index %d/%d/%d",
			im.NList(), im.NTotal(), im.M(), ix.NList(), ix.NTotal, ix.PQ.M)
	}
	if im.ksub != ix.PQ.KSub || im.QScale != ix.QScale {
		t.Fatalf("image KSub/QScale %d/%v, index %d/%v", im.ksub, im.QScale, ix.PQ.KSub, ix.QScale)
	}
	m := ix.PQ.M
	var scratch []byte
	for c := 0; c < ix.NList(); c++ {
		l := &ix.Lists[c]
		if im.ClusterLen(int32(c)) != l.Len() {
			t.Fatalf("cluster %d: image len %d, index %d", c, im.ClusterLen(int32(c)), l.Len())
		}
		if l.Len() == 0 {
			continue
		}
		// Whole-cluster read.
		ids := make([]int64, l.Len())
		codes := make([]uint8, l.Len()*m)
		var err error
		if scratch, err = im.ReadIDs(ids, scratch, int32(c), 0); err != nil {
			t.Fatal(err)
		}
		if err := im.ReadCodes(codes, int32(c), 0); err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if ids[i] != l.IDs[i] {
				t.Fatalf("cluster %d id %d: %d != %d", c, i, ids[i], l.IDs[i])
			}
		}
		if !bytes.Equal(codes, l.Codes) {
			t.Fatalf("cluster %d: codes differ", c)
		}
		// Offset window read (the cold path's chunked access pattern).
		if l.Len() >= 3 {
			base, n := 1, l.Len()-2
			wids := make([]int64, n)
			wcodes := make([]uint8, n*m)
			if scratch, err = im.ReadIDs(wids, scratch, int32(c), base); err != nil {
				t.Fatal(err)
			}
			if err := im.ReadCodes(wcodes, int32(c), base); err != nil {
				t.Fatal(err)
			}
			for i := range wids {
				if wids[i] != l.IDs[base+i] {
					t.Fatalf("cluster %d window id %d differs", c, i)
				}
			}
			if !bytes.Equal(wcodes, l.Codes[base*m:(base+n)*m]) {
				t.Fatalf("cluster %d: window codes differ", c)
			}
		}
	}
}

func TestOpenImageRejectsGarbage(t *testing.T) {
	ix, _ := buildIndex(t, 43, 800, 16, 8, 4)
	good, _ := writeImage(t, ix)

	badMagic := append([]byte(nil), good...)
	copy(badMagic, "NOPE")
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99

	cases := map[string][]byte{
		"empty":             nil,
		"header only":       good[:20],
		"bad magic":         badMagic,
		"future version":    badVersion,
		"truncated counts":  good[:imageHeaderBytes+4],
		"truncated payload": good[:len(good)-7],
		"padded payload":    append(append([]byte(nil), good...), 0, 0, 0),
	}
	for name, b := range cases {
		if _, err := OpenImage(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestImageRejectsOutOfRangeReads(t *testing.T) {
	ix, _ := buildIndex(t, 47, 800, 16, 8, 4)
	_, im := writeImage(t, ix)
	n := im.ClusterLen(0)
	if _, err := im.ReadIDs(make([]int64, n+1), nil, 0, 0); err == nil {
		t.Error("no error for over-long id read")
	}
	if err := im.ReadCodes(make([]uint8, (n+1)*im.M()), 0, 0); err == nil {
		t.Error("no error for over-long code read")
	}
	if err := im.ReadCodes(make([]uint8, 3), 0, 0); err == nil {
		t.Error("no error for non-multiple-of-M code buffer")
	}
	if _, err := im.ReadIDs(make([]int64, 1), nil, int32(im.NList()), 0); err == nil {
		t.Error("no error for out-of-range cluster")
	}
}
