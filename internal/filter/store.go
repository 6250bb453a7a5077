package filter

import (
	"fmt"
	"sync"
)

// Store is one index's attribute store: the typed tags of every vector,
// indexed as bitmap posting lists per (field, value) so predicates
// evaluate by bitmap intersection/union and selectivity is estimated
// from posting cardinalities without evaluating anything. Safe for
// concurrent use; the streaming-update path mutates it under writes
// while searches read.
//
// The store is keyed by vector ID and independent of index epochs:
// attributes arrive on upsert, survive compaction untouched (compaction
// rewrites PQ codes, not tags), and die with deletes.
type Store struct {
	schema *Schema

	mu   sync.RWMutex
	byID map[int64]Attrs
	post map[string]*fieldIndex
}

// fieldIndex is one field's posting lists, keyed by value.
type fieldIndex struct {
	typ  FieldType
	ints map[int64]*Bitmap
	strs map[string]*Bitmap
}

// NewStore returns an empty store over schema.
func NewStore(schema *Schema) *Store {
	s := &Store{
		schema: schema,
		byID:   make(map[int64]Attrs),
		post:   make(map[string]*fieldIndex, len(schema.Fields)),
	}
	for _, f := range schema.Fields {
		fi := &fieldIndex{typ: f.Type}
		if f.Type == TInt {
			fi.ints = make(map[int64]*Bitmap)
		} else {
			fi.strs = make(map[string]*Bitmap)
		}
		s.post[f.Name] = fi
	}
	return s
}

// Schema returns the store's schema.
func (s *Store) Schema() *Schema { return s.schema }

// Len returns the number of tagged vectors.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Set replaces id's tags with attrs (validated against the schema; a
// copy is stored). Upserts carry full replacement semantics: tags absent
// from attrs are dropped, matching how an upsert replaces the vector
// itself. A nil attrs clears the id's tags entirely.
func (s *Store) Set(id int64, attrs Attrs) error {
	if err := attrs.Validate(s.schema); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unindexLocked(id)
	if len(attrs) == 0 {
		delete(s.byID, id)
		return nil
	}
	cp := attrs.Clone()
	s.byID[id] = cp
	for name, v := range cp {
		fi := s.post[name]
		if v.Kind == TInt {
			bm := fi.ints[v.Int]
			if bm == nil {
				bm = NewBitmap()
				fi.ints[v.Int] = bm
			}
			bm.Add(id)
		} else {
			bm := fi.strs[v.Str]
			if bm == nil {
				bm = NewBitmap()
				fi.strs[v.Str] = bm
			}
			bm.Add(id)
		}
	}
	return nil
}

// Remove drops id's tags (deletes kill attributes along with the
// vector). Unknown ids are no-ops.
func (s *Store) Remove(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unindexLocked(id)
	delete(s.byID, id)
}

// unindexLocked removes id from every posting list it appears in;
// caller holds mu. Emptied posting lists are dropped so value churn
// cannot grow the posting maps unboundedly.
func (s *Store) unindexLocked(id int64) {
	old, ok := s.byID[id]
	if !ok {
		return
	}
	for name, v := range old {
		fi := s.post[name]
		if v.Kind == TInt {
			if bm := fi.ints[v.Int]; bm != nil {
				bm.Remove(id)
				if bm.Cardinality() == 0 {
					delete(fi.ints, v.Int)
				}
			}
		} else {
			if bm := fi.strs[v.Str]; bm != nil {
				bm.Remove(id)
				if bm.Cardinality() == 0 {
					delete(fi.strs, v.Str)
				}
			}
		}
	}
}

// Matches reports whether id's tags satisfy pred — the per-candidate
// check of the post-filter path and the overlay scan.
func (s *Store) Matches(pred Pred, id int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Matches(pred, s.byID[id])
}

// Eval evaluates pred into an allow-bitmap over tagged IDs by combining
// posting lists. The returned bitmap is caller-owned: it does not alias
// store internals and stays valid across later writes (a consistent cut
// at call time). Validate pred against the schema first; Eval treats
// unknown fields as empty postings.
func (s *Store) Eval(pred Pred) *Bitmap {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evalLocked(pred)
}

func (s *Store) evalLocked(pred Pred) *Bitmap {
	switch q := pred.(type) {
	case Eq:
		return s.postingLocked(q.Field, q.Value).Clone()
	case In:
		out := NewBitmap()
		for _, v := range q.Values {
			out.OrWith(s.postingLocked(q.Field, v))
		}
		return out
	case Range:
		out := NewBitmap()
		fi := s.post[q.Field]
		if fi == nil || fi.typ != TInt {
			return out
		}
		// Posting maps hold only values that exist, so this walk is
		// O(distinct values in the field), not O(range width).
		for v, bm := range fi.ints {
			if (q.HasMin && v < q.Min) || (q.HasMax && v > q.Max) {
				continue
			}
			out.OrWith(bm)
		}
		return out
	case And:
		var out *Bitmap
		for _, sub := range q.Preds {
			b := s.evalLocked(sub)
			if out == nil {
				out = b
			} else {
				out = out.And(b)
			}
			if out.Cardinality() == 0 {
				return out
			}
		}
		if out == nil {
			return NewBitmap()
		}
		return out
	case Or:
		out := NewBitmap()
		for _, sub := range q.Preds {
			// evalLocked results are fresh bitmaps, so folding them into
			// the accumulator in place aliases nothing live.
			out.OrWith(s.evalLocked(sub))
		}
		return out
	default:
		return NewBitmap()
	}
}

// postingLocked returns the live posting list for (field, value), or an
// empty shared bitmap; caller holds mu and must not mutate the result.
func (s *Store) postingLocked(field string, v Value) *Bitmap {
	fi := s.post[field]
	if fi == nil {
		return emptyBitmap
	}
	var bm *Bitmap
	if v.Kind == TInt && fi.typ == TInt {
		bm = fi.ints[v.Int]
	} else if v.Kind == TString && fi.typ == TString {
		bm = fi.strs[v.Str]
	}
	if bm == nil {
		return emptyBitmap
	}
	return bm
}

var emptyBitmap = NewBitmap()

// EstimateTotal returns pred's estimated selectivity in [0, 1], computed
// from posting-list cardinalities alone, over a denominator floored at
// total — the corpus size the filtered scan actually covers. Compound
// predicates combine under an independence assumption (AND multiplies,
// OR adds complements) — cheap and directionally right even when fields
// correlate. Untagged vectors can
// never match, so on a corpus where only a slice is tagged the true
// selectivity is matches/corpus, not matches/tagged; estimating over
// tagged vectors alone would read a fully-tagged 500-vector slice of a
// 50k corpus as selectivity 1 and mis-plan a post-filter scan that
// drops almost everything. total <= the tagged count (including 0)
// falls back to the tagged count.
func (s *Store) EstimateTotal(pred Pred, total int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.byID)
	if total > n {
		n = total
	}
	if n == 0 {
		return 0
	}
	return s.estimateLocked(pred, float64(n))
}

func (s *Store) estimateLocked(pred Pred, n float64) float64 {
	switch q := pred.(type) {
	case Eq:
		return float64(s.postingLocked(q.Field, q.Value).Cardinality()) / n
	case In:
		sum := 0.0
		for _, v := range q.Values {
			sum += float64(s.postingLocked(q.Field, v).Cardinality()) / n
		}
		return clamp01(sum)
	case Range:
		fi := s.post[q.Field]
		if fi == nil || fi.typ != TInt {
			return 0
		}
		sum := 0.0
		for v, bm := range fi.ints {
			if (q.HasMin && v < q.Min) || (q.HasMax && v > q.Max) {
				continue
			}
			sum += float64(bm.Cardinality()) / n
		}
		return clamp01(sum)
	case And:
		est := 1.0
		for _, sub := range q.Preds {
			est *= s.estimateLocked(sub, n)
		}
		return est
	case Or:
		miss := 1.0
		for _, sub := range q.Preds {
			miss *= 1 - s.estimateLocked(sub, n)
		}
		return clamp01(1 - miss)
	default:
		return 0
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Load bulk-sets attrs for parallel id/attr slices — the boot path for
// indexing an existing corpus's tags (len(attrs) must equal len(ids);
// nil entries skip the id).
func (s *Store) Load(ids []int64, attrs []Attrs) error {
	if len(ids) != len(attrs) {
		return fmt.Errorf("%w: %d ids for %d attr sets", ErrInvalid, len(ids), len(attrs))
	}
	for i, id := range ids {
		if attrs[i] == nil {
			continue
		}
		if err := s.Set(id, attrs[i]); err != nil {
			return fmt.Errorf("id %d: %w", id, err)
		}
	}
	return nil
}
