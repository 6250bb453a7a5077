// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin, TPAMI 2018) — the graph-based method the paper's
// introduction uses to motivate compression-based ANNS: HNSW needs 60-450
// bytes of link structure per vertex plus the full-precision vectors, so
// a billion-vertex graph demands hundreds of gigabytes and "is impractical
// for real-world deployments", whereas IVFPQ compresses to M bytes per
// vector. The motivation experiment compares both on memory and recall.
//
// This is a complete single-threaded implementation: multi-layer graph
// with exponentially distributed levels, greedy descent through upper
// layers, beam search (efSearch / efConstruction) on the target layer,
// and simple closest-M neighbor selection with reverse-link pruning.
package hnsw

import (
	"fmt"
	"math"

	"repro/internal/topk"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Config controls graph construction and search.
type Config struct {
	M              int // links per vertex per layer (layer 0 gets 2M)
	EfConstruction int // beam width while inserting
	EfSearch       int // beam width while querying
	Seed           uint64
}

// DefaultConfig returns commonly used HNSW parameters.
func DefaultConfig() Config {
	return Config{M: 16, EfConstruction: 100, EfSearch: 64, Seed: 1}
}

// Graph is an HNSW index over float32 vectors (squared L2).
type Graph struct {
	cfg  Config
	dim  int
	rng  *xrand.RNG
	mL   float64
	vecs []float32 // flattened vectors, dim each

	// links[l][v] lists vertex v's neighbors at layer l; vertices above
	// their own top layer have nil entries.
	links    [][][]int32
	levelOf  []int32
	entry    int32
	maxLevel int
}

// New creates an empty graph for dim-dimensional vectors.
func New(dim int, cfg Config) *Graph {
	if dim <= 0 {
		panic("hnsw: dim must be positive")
	}
	if cfg.M < 2 {
		panic("hnsw: M must be >= 2")
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = cfg.M
	}
	if cfg.EfSearch < 1 {
		cfg.EfSearch = 1
	}
	return &Graph{
		cfg:   cfg,
		dim:   dim,
		rng:   xrand.New(cfg.Seed),
		mL:    1 / math.Log(float64(cfg.M)),
		entry: -1,
	}
}

// Len returns the number of indexed vectors.
func (g *Graph) Len() int { return len(g.levelOf) }

// Dim returns the vector dimensionality.
func (g *Graph) Dim() int { return g.dim }

func (g *Graph) vec(id int32) []float32 {
	return g.vecs[int(id)*g.dim : (int(id)+1)*g.dim]
}

func (g *Graph) dist(q []float32, id int32) float32 {
	return vecmath.L2Squared(q, g.vec(id))
}

// maxLinks returns the link cap at a layer.
func (g *Graph) maxLinks(layer int) int {
	if layer == 0 {
		return 2 * g.cfg.M
	}
	return g.cfg.M
}

// Add inserts vec and returns its id (insertion order). Panics on a
// dimension mismatch.
func (g *Graph) Add(vec []float32) int32 {
	if len(vec) != g.dim {
		panic(fmt.Sprintf("hnsw: vector dim %d != graph dim %d", len(vec), g.dim))
	}
	id := int32(g.Len())
	g.vecs = append(g.vecs, vec...)
	level := int(math.Floor(-math.Log(1-g.rng.Float64()) * g.mL))
	g.levelOf = append(g.levelOf, int32(level))
	for len(g.links) <= level {
		g.links = append(g.links, nil)
	}
	for l := 0; l <= level; l++ {
		for len(g.links[l]) <= int(id) {
			g.links[l] = append(g.links[l], nil)
		}
	}
	// Keep lower-layer slices sized for every vertex.
	for l := range g.links {
		for len(g.links[l]) <= int(id) {
			g.links[l] = append(g.links[l], nil)
		}
	}

	if g.entry == -1 {
		g.entry = id
		g.maxLevel = level
		return id
	}

	// Greedy descent from the top to level+1.
	cur := g.entry
	curDist := g.dist(vec, cur)
	for l := g.maxLevel; l > level; l-- {
		cur, curDist = g.greedyStep(vec, cur, curDist, l)
	}
	// Beam search and connect on each layer from min(level, maxLevel) down.
	top := level
	if top > g.maxLevel {
		top = g.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := g.searchLayer(vec, cur, g.cfg.EfConstruction, l)
		nbrs := g.selectHeuristic(cands, g.maxLinks(l))
		g.links[l][id] = nbrs
		for _, nb := range nbrs {
			g.links[l][nb] = append(g.links[l][nb], id)
			if len(g.links[l][nb]) > g.maxLinks(l) {
				g.pruneLinks(nb, l)
			}
		}
		if len(cands) > 0 {
			cur = int32(cands[0].ID)
		}
	}
	if level > g.maxLevel {
		g.maxLevel = level
		g.entry = id
	}
	return id
}

// greedyStep walks to the closest neighbor until no improvement.
func (g *Graph) greedyStep(q []float32, cur int32, curDist float32, layer int) (int32, float32) {
	for {
		improved := false
		for _, nb := range g.links[layer][cur] {
			if d := g.dist(q, nb); d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur, curDist
		}
	}
}

// searchLayer runs the beam search of the original algorithm and returns
// up to ef candidates in ascending distance order.
func (g *Graph) searchLayer(q []float32, entry int32, ef int, layer int) []topk.Candidate {
	visited := map[int32]bool{entry: true}
	results := topk.NewHeap(ef) // worst-first bounded set
	entryDist := g.dist(q, entry)
	results.Push(int64(entry), entryDist)

	// Candidate frontier: a simple sorted stack suffices at these sizes.
	frontier := []topk.Candidate{{ID: int64(entry), Dist: entryDist}}
	for len(frontier) > 0 {
		// Pop the closest frontier element.
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].Dist < frontier[best].Dist {
				best = i
			}
		}
		c := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if results.Full() && c.Dist > results.Worst().Dist {
			break
		}
		for _, nb := range g.links[layer][int32(c.ID)] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := g.dist(q, nb)
			if results.Push(int64(nb), d) {
				frontier = append(frontier, topk.Candidate{ID: int64(nb), Dist: d})
			}
		}
	}
	return results.Sorted()
}

// selectHeuristic implements the HNSW paper's Algorithm 4: walk the
// candidates in ascending distance and keep one only if it is closer to
// the query than to every already-selected neighbor, which spreads links
// across directions instead of clumping them; remaining slots are filled
// with the closest skipped candidates (the keepPruned variant).
func (g *Graph) selectHeuristic(cands []topk.Candidate, m int) []int32 {
	out := make([]int32, 0, m)
	var skipped []int32
	for _, c := range cands {
		if len(out) == m {
			break
		}
		id := int32(c.ID)
		diverse := true
		for _, s := range out {
			if vecmath.L2Squared(g.vec(id), g.vec(s)) < c.Dist {
				diverse = false
				break
			}
		}
		if diverse {
			out = append(out, id)
		} else {
			skipped = append(skipped, id)
		}
	}
	for _, id := range skipped {
		if len(out) == m {
			break
		}
		out = append(out, id)
	}
	return out
}

// pruneLinks trims vertex v's links at layer to maxLinks using the same
// diversity heuristic, measured from v.
func (g *Graph) pruneLinks(v int32, layer int) {
	nbrs := g.links[layer][v]
	m := g.maxLinks(layer)
	h := topk.NewHeap(len(nbrs))
	base := g.vec(v)
	for _, nb := range nbrs {
		h.Push(int64(nb), vecmath.L2Squared(base, g.vec(nb)))
	}
	g.links[layer][v] = g.selectHeuristic(h.Sorted(), m)
}

// Search returns the k nearest indexed vectors in ascending distance.
func (g *Graph) Search(q []float32, k int) []topk.Candidate {
	if g.entry == -1 {
		return nil
	}
	if len(q) != g.dim {
		panic("hnsw: query dim mismatch")
	}
	cur := g.entry
	curDist := g.dist(q, cur)
	for l := g.maxLevel; l > 0; l-- {
		cur, curDist = g.greedyStep(q, cur, curDist, l)
	}
	ef := g.cfg.EfSearch
	if ef < k {
		ef = k
	}
	cands := g.searchLayer(q, cur, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// MemoryBytes returns the resident footprint: full-precision vectors plus
// link storage (4 bytes per link) plus per-vertex metadata. This is the
// quantity the paper's introduction compares against IVFPQ's M bytes per
// vector (plus ids).
func (g *Graph) MemoryBytes() int64 {
	total := int64(len(g.vecs)) * 4
	for l := range g.links {
		for _, nbrs := range g.links[l] {
			total += int64(len(nbrs)) * 4
		}
	}
	total += int64(len(g.levelOf)) * 4
	return total
}

// LinkBytesPerVertex returns the average link-structure overhead, the
// paper's "60-450 bytes per vertex" quantity.
func (g *Graph) LinkBytesPerVertex() float64 {
	if g.Len() == 0 {
		return 0
	}
	var links int64
	for l := range g.links {
		for _, nbrs := range g.links[l] {
			links += int64(len(nbrs))
		}
	}
	return float64(links*4) / float64(g.Len())
}
