package main

import (
	"bytes"
	"reflect"
	"testing"
)

// TestStreamsAreAFunctionOfTheSeed: the same seed gives byte-identical
// request streams (every client's, the traced sample's, the held-out
// queries), another seed gives different ones.
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		gen := func(seed uint64) []byte {
			in, err := generate(wl, seed, tinyScale, 2)
			if err != nil {
				t.Fatal(err)
			}
			buf := in.streamBytes(700) // past one query chunk
			held := in.heldOut()
			for i := 0; i < held.Rows; i++ {
				buf = appendRequest(buf, request{Vec: held.Row(i)})
			}
			return buf
		}
		a, again, b := gen(5), gen(5), gen(6)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 5 gave two different streams", wl)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 5 and 6 gave the same stream", wl)
		}
	}
}

func TestMixedStreamMixAndOwnership(t *testing.T) {
	in, err := generate(wlMixedSingle, 9, tinyScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int64]int{}
	for c := 0; c <= in.clients; c++ {
		st := in.stream(c)
		counts := map[opKind]int{}
		live := map[int64]bool{}
		const n = 20000
		for i := 0; i < n; i++ {
			r := st.Next()
			counts[r.Kind]++
			if r.Kind == opSearch {
				continue
			}
			if prev, seen := owner[r.ID]; seen && prev != c {
				t.Fatalf("id %d written by clients %d and %d", r.ID, prev, c)
			}
			owner[r.ID] = c
			switch r.Kind {
			case opUpsert:
				if r.ID < int64(in.n()) || live[r.ID] {
					t.Fatalf("client %d: upsert of id %d, which is not new", c, r.ID)
				}
				live[r.ID] = true
			case opOverwrite, opDelete:
				if r.ID >= int64(in.n()) && !live[r.ID] {
					t.Fatalf("client %d: %v targets an id it never created or already deleted", c, r)
				}
				if r.Kind == opDelete {
					live[r.ID] = false
				}
			}
		}
		for kind, want := range map[opKind]float64{opSearch: 0.70, opUpsert: 0.20, opOverwrite: 0.05, opDelete: 0.05} {
			if got := float64(counts[kind]) / n; got < want-0.02 || got > want+0.02 {
				t.Errorf("client %d: %v share %.3f, want about %.2f", c, kind, got, want)
			}
		}
	}
}

// TestDeploymentIgnoresTheWorkloadSeed: no program constructor is handed
// the workload seed. Two deployments from the same generated inputs, one
// of them relabelled with another seed, train to the same index.
func TestDeploymentIgnoresTheWorkloadSeed(t *testing.T) {
	build := func(relabel uint64) *deployment {
		in, err := generate(wlPlainFleet, 4, tinyScale, 2)
		if err != nil {
			t.Fatal(err)
		}
		in.seed = relabel
		d, err := deploy(in, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	a, b := build(4), build(99)
	for sh := range a.Shards {
		ia, ib := a.Shards[sh].Base, b.Shards[sh].Base
		if !reflect.DeepEqual(ia.Coarse.Centroids.Data, ib.Coarse.Centroids.Data) ||
			!reflect.DeepEqual(ia.PQ.Codebooks, ib.PQ.Codebooks) ||
			!reflect.DeepEqual(ia.Lists, ib.Lists) {
			t.Errorf("shard %d: the trained index depends on the workload seed", sh)
		}
		if !reflect.DeepEqual(a.Shards[sh].MCfg.Engine, b.Shards[sh].MCfg.Engine) {
			t.Errorf("shard %d: the engine config depends on the workload seed", sh)
		}
	}
}
