package filter

import "math/bits"

// containerBits is the ID span of one bitmap container. 4096 bits (512
// bytes of words) keeps sparse posting lists compact — only containers
// with at least one set bit exist — while dense lists cost 1 bit per ID,
// the same trade roaring bitmaps make at this granularity.
const containerBits = 1 << 12

// containerWords is the uint64 word count of one container.
const containerWords = containerBits / 64

// container is one fixed-span block of bits.
type container struct {
	words [containerWords]uint64
	// card caches the container's set-bit count so Cardinality is O(1)
	// in the container count.
	card int
}

// Bitmap is a compressed bitmap over int64 IDs: a sorted slice of
// fixed-span containers, present only where at least one bit is set.
// The posting lists of the attribute Store are Bitmaps, and predicate
// evaluation combines them with And/Or. The zero value is an empty
// bitmap ready for use. Not safe for concurrent mutation; the Store
// guards its postings with its own lock.
type Bitmap struct {
	keys []int64      // sorted container keys (id >> 12)
	cs   []*container // parallel to keys
	n    int          // total set bits
}

// NewBitmap returns an empty bitmap.
func NewBitmap() *Bitmap { return &Bitmap{} }

// split decomposes an id into its container key, word index, and bit.
func split(id int64) (key int64, word int, bit uint64) {
	// Arithmetic shift keeps negative IDs ordered correctly.
	key = id >> 12
	off := uint64(id) & (containerBits - 1)
	return key, int(off >> 6), uint64(1) << (off & 63)
}

// find locates key's container index, or the insertion point with
// ok=false.
func (b *Bitmap) find(key int64) (int, bool) {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.keys) && b.keys[lo] == key
}

// Add sets id's bit.
func (b *Bitmap) Add(id int64) {
	key, w, bit := split(id)
	i, ok := b.find(key)
	if !ok {
		b.keys = append(b.keys, 0)
		b.cs = append(b.cs, nil)
		copy(b.keys[i+1:], b.keys[i:])
		copy(b.cs[i+1:], b.cs[i:])
		b.keys[i] = key
		b.cs[i] = &container{}
	}
	c := b.cs[i]
	if c.words[w]&bit == 0 {
		c.words[w] |= bit
		c.card++
		b.n++
	}
}

// Remove clears id's bit; clearing an unset bit is a no-op. An emptied
// container is dropped so the bitmap stays compressed under churn.
func (b *Bitmap) Remove(id int64) {
	key, w, bit := split(id)
	i, ok := b.find(key)
	if !ok {
		return
	}
	c := b.cs[i]
	if c.words[w]&bit == 0 {
		return
	}
	c.words[w] &^= bit
	c.card--
	b.n--
	if c.card == 0 {
		b.keys = append(b.keys[:i], b.keys[i+1:]...)
		b.cs = append(b.cs[:i], b.cs[i+1:]...)
	}
}

// Contains reports whether id's bit is set.
func (b *Bitmap) Contains(id int64) bool {
	key, w, bit := split(id)
	i, ok := b.find(key)
	return ok && b.cs[i].words[w]&bit != 0
}

// Cardinality returns the number of set bits.
func (b *Bitmap) Cardinality() int { return b.n }

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{
		keys: append([]int64(nil), b.keys...),
		cs:   make([]*container, len(b.cs)),
		n:    b.n,
	}
	for i, c := range b.cs {
		cp := *c
		out.cs[i] = &cp
	}
	return out
}

// And returns the intersection of b and o as a new bitmap. The sorted
// container walk touches only keys present in both operands.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	out := NewBitmap()
	i, j := 0, 0
	for i < len(b.keys) && j < len(o.keys) {
		switch {
		case b.keys[i] < o.keys[j]:
			i++
		case b.keys[i] > o.keys[j]:
			j++
		default:
			var c container
			for w := 0; w < containerWords; w++ {
				v := b.cs[i].words[w] & o.cs[j].words[w]
				c.words[w] = v
				c.card += bits.OnesCount64(v)
			}
			if c.card > 0 {
				out.keys = append(out.keys, b.keys[i])
				cc := c
				out.cs = append(out.cs, &cc)
				out.n += c.card
			}
			i++
			j++
		}
	}
	return out
}

// OrWith adds every bit of o to b in place. Predicate evaluation
// accumulates posting-list unions with it: each operand container is
// touched once, where rebuilding the growing union as a new bitmap per
// operand would deep-copy the accumulator every time (O(V²) container
// copies for a V-value IN list).
func (b *Bitmap) OrWith(o *Bitmap) {
	for j, key := range o.keys {
		i, ok := b.find(key)
		if !ok {
			cp := *o.cs[j]
			b.keys = append(b.keys, 0)
			b.cs = append(b.cs, nil)
			copy(b.keys[i+1:], b.keys[i:])
			copy(b.cs[i+1:], b.cs[i:])
			b.keys[i] = key
			b.cs[i] = &cp
			b.n += cp.card
			continue
		}
		c := b.cs[i]
		card := 0
		for w := 0; w < containerWords; w++ {
			c.words[w] |= o.cs[j].words[w]
			card += bits.OnesCount64(c.words[w])
		}
		b.n += card - c.card
		c.card = card
	}
}
