package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/vecmath"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Everything the program is sent comes from this file, and everything
// here is a function of (workload, seed, scale, client count): the corpus,
// the tags, each client's request stream, the held-out recall queries and
// the traced sample.

type opKind uint8

const (
	opSearch    opKind = iota
	opUpsert           // a new id
	opOverwrite        // a live id gets a new vector
	opDelete
)

func (k opKind) String() string {
	return [...]string{"search", "upsert", "overwrite", "delete"}[k]
}

// request is one operation a client sends.
type request struct {
	Kind opKind
	ID   int64     // writes
	Vec  []float32 // query, or the vector written
	Band int       // filtered searches: index into inputs.bands; -1 otherwise
}

// stream is one client's request sequence. Not safe for concurrent use.
type stream interface{ Next() request }

// Seed purposes, mixed into the workload seed so no two generators share
// a random sequence.
const (
	purposeCorpus = iota + 1
	purposeTags
	purposeQueries
	purposeMixed
	purposeOverwrite
	purposeHeldOut
	purposeSlab
)

// subSeed derives an independent seed from the workload seed.
func subSeed(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x += p + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// The mixed_single operation mix: 70 % search, 20 % upsert of a new id,
// 5 % overwrite, 5 % delete.
const (
	mixWriteFraction  = 0.30
	mixDeleteShare    = 5.0 / 30.0 // of writes
	mixOverwriteShare = 5.0 / 25.0 // of upserts
)

// filteredFractions are filtered_fleet's two bands: at 1 % the planner
// pre-filters through an allow-bitmap, at 50 % it post-filters at an
// inflated fetch k.
var filteredFractions = []float64{0.01, 0.5}

// inputs is one run's generated data.
type inputs struct {
	workload string
	seed     uint64
	sc       scale
	clients  int

	ds   *dataset.Dataset
	base *vecmath.Matrix // row i is global id i; dropped once deployed
	pool *vecmath.Matrix // mixed_single: vectors for upserts

	// Fleets carry tags so one deployment serves both fleet workloads.
	schema *filter.Schema
	attrs  []filter.Attrs // by id; dropped once loaded
	bands  []workload.SelectivityBand
	member [][]bool // member[band][id]
}

func shardsOf(wl string) int {
	if wl == wlPlainFleet || wl == wlFilteredFleet {
		return 2
	}
	return 1
}

func (in *inputs) n() int { return shardsOf(in.workload) * in.sc.PerShard }

// genVectors builds the corpus rows (and mixed_single's insert pool)
// with one Generate call, so upserted vectors share the corpus' anchors.
func genVectors(wl string, seed uint64, sc scale) (ds *dataset.Dataset, base, pool *vecmath.Matrix) {
	n := shardsOf(wl) * sc.PerShard
	rows := n
	if wl == wlMixedSingle {
		rows += sc.InsertPool
	}
	ds = dataset.Generate(dataset.SIFT1B, rows, subSeed(seed, purposeCorpus))
	dim := ds.Spec.Dim
	base = vecmath.WrapMatrix(ds.Vectors.Data[:n*dim], n, dim)
	if wl == wlMixedSingle {
		// A copy, so releasing base frees the corpus while the pool lives on.
		pool = vecmath.NewMatrix(sc.InsertPool, dim)
		copy(pool.Data, ds.Vectors.Data[n*dim:])
		base = vecmath.WrapMatrix(ds.Vectors.Data[:n*dim:n*dim], n, dim)
	}
	// Queries need the anchors only; dropping these lets the corpus go
	// once base is released.
	ds.Vectors, ds.AnchorOf = nil, nil
	return ds, base, pool
}

// generate builds the corpus, tags and insert pool of one workload.
func generate(wl string, seed uint64, sc scale, clients int) (*inputs, error) {
	in := &inputs{workload: wl, seed: seed, sc: sc, clients: clients}
	in.ds, in.base, in.pool = genVectors(wl, seed, sc)
	if n := in.n(); shardsOf(wl) > 1 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		var err error
		in.schema, in.attrs, in.bands, err = workload.SelectivitySweep(ids, filteredFractions, subSeed(seed, purposeTags))
		if err != nil {
			return nil, err
		}
		in.member = make([][]bool, len(in.bands))
		for b, band := range in.bands {
			in.member[b] = make([]bool, n)
			for id, a := range in.attrs {
				if v, ok := a[band.Field]; ok && v.Int == 1 {
					in.member[b][id] = true
				}
			}
		}
	}
	return in, nil
}

// queryFeed hands out Dataset.Queries vectors (Zipf anchor skew, fresh
// noise each) chunk by chunk, so a stream never repeats a query verbatim
// and never runs dry.
type queryFeed struct {
	ds    *dataset.Dataset
	seed  uint64
	chunk uint64
	rows  *vecmath.Matrix
	next  int
}

const queryChunk = 512

func (f *queryFeed) Next() []float32 {
	if f.rows == nil || f.next == f.rows.Rows {
		f.rows = f.ds.Queries(queryChunk, subSeed(f.seed, f.chunk))
		f.chunk++
		f.next = 0
	}
	v := f.rows.Row(f.next)
	f.next++
	return v
}

// searchStream is the read-only workloads' stream. With bands it
// alternates them request by request.
type searchStream struct {
	q     queryFeed
	bands int
	i     int
}

func (s *searchStream) Next() request {
	r := request{Kind: opSearch, Vec: s.q.Next(), Band: -1}
	if s.bands > 0 {
		r.Band = s.i % s.bands
		s.i++
	}
	return r
}

// mixedStream wraps workload.MixedStream: the wrapped stream decides
// search / upsert / delete and owns the live-id bookkeeping; this layer
// swaps its repeating pool queries for fresh ones and turns a share of the
// upserts into overwrites of a live id.
type mixedStream struct {
	q   queryFeed
	ms  *workload.MixedStream
	rng *xrand.RNG
	// unborn are ids the wrapped stream believes it upserted but which
	// became overwrites; a delete it later draws for one is skipped.
	unborn map[int64]struct{}
}

func (s *mixedStream) Next() request {
	for {
		op := s.ms.Next()
		switch op.Kind {
		case workload.OpSearch:
			return request{Kind: opSearch, Vec: s.q.Next(), Band: -1}
		case workload.OpUpsert:
			if s.rng.Float64() < mixOverwriteShare {
				live := s.ms.Live()
				target := live[s.rng.Intn(len(live))]
				if _, gone := s.unborn[target]; !gone && target != op.ID {
					s.unborn[op.ID] = struct{}{}
					return request{Kind: opOverwrite, ID: target, Vec: op.Vec, Band: -1}
				}
			}
			return request{Kind: opUpsert, ID: op.ID, Vec: op.Vec, Band: -1}
		case workload.OpDelete:
			if _, never := s.unborn[op.ID]; never {
				continue
			}
			return request{Kind: opDelete, ID: op.ID, Band: -1}
		}
	}
}

// freshIDSpan is how many new ids each mixed client may allocate; client
// c upserts ids n + c*freshIDSpan, n + c*freshIDSpan + 1, ...
const freshIDSpan = 1 << 24

// stream returns client c's request stream. Clients 0..clients-1 drive
// load; client index clients is the traced sample. In mixed_single every
// client writes only ids it owns (base id mod (clients+1), and its own
// fresh range), so the benchmark's model of acknowledged writes is exact
// without ordering writes across clients.
func (in *inputs) stream(c int) stream {
	q := queryFeed{ds: in.ds, seed: subSeed(in.seed, purposeQueries, uint64(c))}
	if in.workload != wlMixedSingle {
		s := &searchStream{q: q}
		if in.workload == wlFilteredFleet {
			s.bands = len(in.bands)
		}
		return s
	}
	parts := in.clients + 1
	var owned []int64
	for id := c; id < in.n(); id += parts {
		owned = append(owned, int64(id))
	}
	per := in.pool.Rows / parts
	dim := in.pool.Dim
	slice := vecmath.WrapMatrix(in.pool.Data[c*per*dim:(c+1)*per*dim], per, dim)
	cfg := workload.MixedConfig{WriteFraction: mixWriteFraction, DeleteShare: mixDeleteShare}
	// The wrapped stream's own searches are discarded, so its query pool
	// only has to exist.
	return &mixedStream{
		q:      q,
		ms:     workload.NewMixedStream(cfg, slice, slice, owned, int64(in.n())+int64(c)*freshIDSpan, subSeed(in.seed, purposeMixed, uint64(c))),
		rng:    xrand.New(subSeed(in.seed, purposeOverwrite, uint64(c))),
		unborn: make(map[int64]struct{}),
	}
}

// heldOut returns the recall queries, never sent during load. On
// filtered_fleet query i is asked under band i mod len(bands).
func (in *inputs) heldOut() *vecmath.Matrix {
	return in.ds.Queries(in.sc.HeldOut, subSeed(in.seed, purposeHeldOut))
}

func (in *inputs) filterExpr(band int) string {
	if band < 0 {
		return ""
	}
	return in.bands[band].Expr
}

// appendRequest serializes r; the determinism test compares streams by
// these bytes.
func appendRequest(buf []byte, r request) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.Band)))
	for _, f := range r.Vec {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
	}
	return buf
}

// streamBytes serializes the first n requests of every client's stream
// (the traced sample included).
func (in *inputs) streamBytes(n int) []byte {
	var buf []byte
	for c := 0; c <= in.clients; c++ {
		st := in.stream(c)
		for i := 0; i < n; i++ {
			buf = appendRequest(buf, st.Next())
		}
	}
	return buf
}

func (r request) String() string {
	return fmt.Sprintf("%s id=%d band=%d", r.Kind, r.ID, r.Band)
}
