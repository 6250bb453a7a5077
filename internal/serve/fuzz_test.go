package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

const fuzzDim = 4

// newFuzzShard serves a small mutable deployment, with the attribute
// schema "tenant:int,lang:string" or without one, through the shard
// handler with writes enabled — the upanns-serve wiring at toy scale.
func newFuzzShard(tb testing.TB, schema bool) *Handler {
	tb.Helper()
	r := xrand.New(5)
	base := vecmath.NewMatrix(400, fuzzDim)
	for i := range base.Data {
		base.Data[i] = float32(r.NormFloat64())
	}
	ix := ivfpq.Train(base, ivfpq.Params{NList: 4, M: 2, KSub: 16, Seed: 3})
	ix.Add(base, 0)
	cfg := mutable.ServingConfig(2, 20, 2, 1)
	if schema {
		s, err := filter.ParseSchema("tenant:int,lang:string")
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Schema = s
	}
	u, err := mutable.New(ix, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(u.Close)
	srv, err := NewServer(Config{K: 5, MaxK: 20}, u)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	wb := NewWriteBatcher(WriteConfig{}, u)
	tb.Cleanup(wb.Close)
	return NewHandler(srv, HandlerConfig{Writer: wb})
}

// FuzzShardRequests sends arbitrary bodies to the shard's POST routes on
// deployments with and without a schema. The handler must never panic,
// must answer 200 (a well-formed SearchResponse on /search) or 4xx, plus
// 501 when a filter or tags reach the schema-less deployment, and every
// non-200 body must decode as an ErrorResponse.
func FuzzShardRequests(f *testing.F) {
	shards := [2]*Handler{newFuzzShard(f, false), newFuzzShard(f, true)}
	routes := [3]string{"/search", "/upsert", "/delete"}
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"vector": [0.1, 0.2, 0.3, 0.4]}`},
		{0, `{"vector": [0.1, 0.2, 0.3, 0.4], "k": 20, "filter": "tenant = 1 AND lang = \"en\""}`},
		{3, `{"vector": [0.1, 0.2, 0.3, 0.4], "filter": "tenant IN (1, 2) OR NOT lang = \"fr\""}`},
		{3, `{"vector": [0.1, 0.2, 0.3, 0.4], "filter": "score BETWEEN 1 AND"}`},
		{0, `{"vector": [1e38, -1e38, 0, 0], "k": -1}`},
		{0, `{"vector": [0.1], "k": 1000}`},
		{1, `{"id": 7, "vector": [0.1, 0.2, 0.3, 0.4]}`},
		{4, `{"id": 8, "vector": [0.1, 0.2, 0.3, 0.4], "attrs": {"tenant": 1, "lang": "en"}}`},
		{1, `{"id": 9, "vector": [0.1, 0.2, 0.3, 0.4], "attrs": {"tenant": "x"}}`},
		{5, `{"id": 7}`},
		{2, `{"id": -1}`},
		{0, `{"vector": `},
		{1, `[]`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path, withSchema := routes[route%3], route/3%2 == 1
		rec := httptest.NewRecorder()
		shards[route/3%2].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		code := rec.Code
		switch {
		case code == http.StatusOK && path == "/search":
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.IDs) != len(resp.Distances) {
				t.Fatalf("/search answered 200 with a malformed reply (%v): %q", err, rec.Body.Bytes())
			}
			return
		case code == http.StatusOK:
			return
		case code == http.StatusNotImplemented && !withSchema:
		case code >= 400 && code < 500:
		default:
			t.Fatalf("%s (schema %v) answered %d: %s", path, withSchema, code, rec.Body.Bytes())
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("%s answered %d with a body that is not an ErrorResponse (%v): %q", path, code, err, rec.Body.Bytes())
		}
	})
}
