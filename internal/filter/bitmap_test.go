package filter

import (
	"math/bits"
	"testing"

	"repro/internal/xrand"
)

// bitmapIDs returns b's ids in container and word order.
func bitmapIDs(b *Bitmap) []int64 {
	var out []int64
	for i, key := range b.keys {
		for w := 0; w < containerWords; w++ {
			for word := b.cs[i].words[w]; word != 0; word &= word - 1 {
				out = append(out, key<<12+int64(w<<6)+int64(bits.TrailingZeros64(word)))
			}
		}
	}
	return out
}

// union returns a new bitmap holding the ids of a and b.
func union(a, b *Bitmap) *Bitmap {
	out := a.Clone()
	out.OrWith(b)
	return out
}

func TestBitmapAddRemoveContains(t *testing.T) {
	b := NewBitmap()
	ids := []int64{0, 1, 63, 64, 4095, 4096, 1 << 20, 1<<40 + 17, -1, -4096}
	for _, id := range ids {
		if b.Contains(id) {
			t.Fatalf("empty bitmap contains %d", id)
		}
		b.Add(id)
		if !b.Contains(id) {
			t.Fatalf("bitmap missing %d after Add", id)
		}
	}
	if b.Cardinality() != len(ids) {
		t.Fatalf("cardinality %d, want %d", b.Cardinality(), len(ids))
	}
	b.Add(ids[0]) // duplicate add is a no-op
	if b.Cardinality() != len(ids) {
		t.Fatalf("duplicate add changed cardinality to %d", b.Cardinality())
	}
	for _, id := range ids {
		b.Remove(id)
		if b.Contains(id) {
			t.Fatalf("bitmap still contains %d after Remove", id)
		}
	}
	if b.Cardinality() != 0 {
		t.Fatalf("cardinality %d after removing everything", b.Cardinality())
	}
	if len(b.keys) != 0 {
		t.Fatalf("%d containers survive an emptied bitmap", len(b.keys))
	}
}

func TestBitmapAndOrAgainstReference(t *testing.T) {
	rng := xrand.New(7)
	a, b := NewBitmap(), NewBitmap()
	ra, rb := map[int64]bool{}, map[int64]bool{}
	for i := 0; i < 5000; i++ {
		// Cluster ids into a few container ranges so containers overlap.
		id := int64(rng.Intn(3)*100000 + rng.Intn(6000))
		if rng.Intn(2) == 0 {
			a.Add(id)
			ra[id] = true
		} else {
			b.Add(id)
			rb[id] = true
		}
	}
	and, or := a.And(b), union(a, b)
	wantAnd, wantOr := 0, len(ra)
	for id := range rb {
		if ra[id] {
			wantAnd++
		} else {
			wantOr++
		}
	}
	if and.Cardinality() != wantAnd {
		t.Fatalf("And cardinality %d, want %d", and.Cardinality(), wantAnd)
	}
	if or.Cardinality() != wantOr {
		t.Fatalf("Or cardinality %d, want %d", or.Cardinality(), wantOr)
	}
	for _, id := range bitmapIDs(and) {
		if !ra[id] || !rb[id] {
			t.Fatalf("And yielded %d not in both references", id)
		}
	}
	for _, id := range bitmapIDs(or) {
		if !ra[id] && !rb[id] {
			t.Fatalf("Or yielded %d in neither reference", id)
		}
	}
}

func TestBitmapAscendingAndClone(t *testing.T) {
	b := NewBitmap()
	want := []int64{-9000, -1, 0, 5, 4100, 1 << 30}
	for _, id := range want {
		b.Add(id)
	}
	got := bitmapIDs(b)
	if len(got) != len(want) {
		t.Fatalf("bitmap holds %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("id %d = %d, want %d (containers in ascending key order)", i, got[i], want[i])
		}
	}
	cl := b.Clone()
	cl.Remove(want[0])
	if !b.Contains(want[0]) {
		t.Fatal("mutating a clone reached the original")
	}
}

// FuzzBitmapOps drives an operation stream over a bitmap and a reference
// map, then cross-checks Contains, Cardinality, And, and OrWith.
func FuzzBitmapOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 0, 255, 0, 16, 16, 16})
	f.Add([]byte("add remove add add or and"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bms := [2]*Bitmap{NewBitmap(), NewBitmap()}
		refs := [2]map[int64]bool{{}, {}}
		for i := 0; i+3 < len(data); i += 4 {
			which := int(data[i]) & 1
			remove := data[i]&2 != 0
			// Spread ids across containers, including negatives.
			id := int64(data[i+1])<<12 | int64(data[i+2])<<4 | int64(data[i+3])
			if data[i+1]&1 == 1 {
				id = -id
			}
			if remove {
				bms[which].Remove(id)
				delete(refs[which], id)
			} else {
				bms[which].Add(id)
				refs[which][id] = true
			}
		}
		for w := 0; w < 2; w++ {
			if bms[w].Cardinality() != len(refs[w]) {
				t.Fatalf("bitmap %d cardinality %d, reference %d", w, bms[w].Cardinality(), len(refs[w]))
			}
			for id := range refs[w] {
				if !bms[w].Contains(id) {
					t.Fatalf("bitmap %d missing %d", w, id)
				}
			}
			ids := bitmapIDs(bms[w])
			for _, id := range ids {
				if !refs[w][id] {
					t.Fatalf("bitmap %d holds %d not in reference", w, id)
				}
			}
			if len(ids) != len(refs[w]) {
				t.Fatalf("bitmap %d holds %d ids, want %d", w, len(ids), len(refs[w]))
			}
		}
		and := bms[0].And(bms[1])
		wantAnd, wantOr := 0, len(refs[0])
		for id := range refs[1] {
			if refs[0][id] {
				wantAnd++
			} else {
				wantOr++
			}
		}
		if and.Cardinality() != wantAnd {
			t.Fatalf("And cardinality %d, want %d", and.Cardinality(), wantAnd)
		}
		inPlace := bms[0].Clone()
		inPlace.OrWith(bms[1])
		if inPlace.Cardinality() != wantOr {
			t.Fatalf("OrWith cardinality %d, want %d", inPlace.Cardinality(), wantOr)
		}
		for w := 0; w < 2; w++ {
			for id := range refs[w] {
				if !inPlace.Contains(id) {
					t.Fatalf("OrWith missing %d", id)
				}
			}
		}
	})
}

func TestBitmapOrWithMatchesOr(t *testing.T) {
	rng := xrand.New(11)
	acc, want := NewBitmap(), map[int64]bool{}
	for round := 0; round < 20; round++ {
		op := NewBitmap()
		for i := 0; i < 300; i++ {
			id := int64(rng.Intn(4)*50000 + rng.Intn(5000))
			op.Add(id)
		}
		before := op.Cardinality()
		acc.OrWith(op)
		for _, id := range bitmapIDs(op) {
			want[id] = true
		}
		// The operand must be untouched and the accumulator must hold
		// exactly the union.
		if op.Cardinality() != before {
			t.Fatalf("round %d: OrWith changed its operand", round)
		}
		if acc.Cardinality() != len(want) {
			t.Fatalf("round %d: OrWith cardinality %d, union %d", round, acc.Cardinality(), len(want))
		}
		for id := range want {
			if !acc.Contains(id) {
				t.Fatalf("round %d: OrWith missing %d", round, id)
			}
		}
	}
}
