package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ncexplorer"
	"ncexplorer/internal/server"
)

// FuzzV2Query posts arbitrary bytes to the /v2 JSON query endpoints of
// the package's shared tiny-world server. Whatever the body, the
// handler never panics, and every answer other than a 2xx is a client
// error (status below 500) carrying the /v2 error envelope with a
// non-empty code.
func FuzzV2Query(f *testing.F) {
	c := topicConcepts(f, 0)
	addJSONSeeds(f, `{"k":`,
		map[string]any{"concepts": c, "k": 3},
		map[string]any{"concepts": c, "k": 5, "offset": 2, "explain": true},
		map[string]any{"concepts": c, "k": -1},
		map[string]any{"concepts": c, "offset": -2},
		map[string]any{"concepts": c, "min_score": -0.5},
		map[string]any{"concepts": []string{"", "  "}},
		map[string]any{"concepts": c, "sources": []string{"bbc"}},
		map[string]any{"concepts": []string{c[0] + "z"}},
		map[string]any{"queries": []map[string]any{
			{"op": "rollup", "concepts": c, "k": 2},
			{"op": "drilldown", "concepts": c[:1], "k": 4, "offset": 1, "explain": true},
			{"op": "rollup", "concepts": []string{"No such concept zzz"}},
			{"op": "frobnicate", "concepts": c},
		}},
		map[string]any{"queries": []any{}},
	)
	h := testServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v2/query/rollup", "/v2/query/drilldown", "/v2/batch"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			fuzzEnvelope(t, http.MethodPost, path, body, rec)
		}
	})
}

// fuzzEnvelope fails the fuzz case unless rec is a 2xx or a client
// error (status below 500) carrying the /v2 error envelope with a
// non-empty code.
func fuzzEnvelope(t *testing.T, method, path string, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 200 && rec.Code < 300 {
		return
	}
	var e v2Error
	if rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
		t.Fatalf("%s %s %q: status %d, body %q", method, path, body, rec.Code, rec.Body.String())
	}
}

// addJSONSeeds adds each value's JSON encoding, then three malformed
// bodies: invalid JSON, the truncated object trunc, and nothing.
func addJSONSeeds(f *testing.F, trunc string, seeds ...any) {
	for _, s := range seeds {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("{not json"))
	f.Add([]byte(trunc))
	f.Add([]byte(""))
}

// FuzzV2IngestBody posts arbitrary bytes to /v2/ingest on a private
// ingest-enabled tiny-world server. Whatever the body, the handler
// never panics, and every answer other than a 2xx is a client error
// carrying the /v2 error envelope with a code. Accepted batches grow
// the private world, which only this target reads.
func FuzzV2IngestBody(f *testing.F) {
	article := func(source, published string) map[string]string {
		return map[string]string{"source": source, "title": "Exchange collapse", "body": "FTX filed for bankruptcy in Delaware.", "published_at": published}
	}
	addJSONSeeds(f, `{"articles":`,
		map[string]any{"articles": []any{article("reuters", "")}},
		map[string]any{"articles": []any{article("bbc", "2023-09-04T08:00:00Z"), article("cnn", "")}},
		map[string]any{"articles": []any{article("nosuchsource", "")}},
		map[string]any{"articles": []any{article("reuters", "yesterday")}},
		map[string]any{"articles": []any{}},
		map[string]any{"articles": []any{map[string]any{"source": 7, "title": []int{1}}}},
		map[string]any{"articles": make([]map[string]string, 5)},
	)
	_, s := ingestWorld(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fuzzEnvelope(t, http.MethodPost, "/v2/ingest", body, rec)
	})
}

// FuzzV2WatchlistBody posts arbitrary bytes to POST /v2/watchlists on a
// private tiny-world server, deleting every list it creates so the
// registry never fills. Whatever the body, neither call panics, and
// every answer other than a 2xx is a client error carrying the /v2
// error envelope with a code. The server never ingests, so no alert —
// and no webhook delivery — ever fires.
func FuzzV2WatchlistBody(f *testing.F) {
	c := topicConcepts(f, 0)
	addJSONSeeds(f, `{"concepts":`,
		map[string]any{"concepts": c, "name": "n"},
		map[string]any{"concepts": c[:1], "sources": []string{"bbc"}, "min_score": 0.2},
		map[string]any{"concepts": c, "window_count": 3, "window_days": 7},
		map[string]any{"concepts": c, "window_count": 3},
		map[string]any{"concepts": c, "min_score": -1},
		map[string]any{"concepts": c, "webhook_url": "ftp://127.0.0.1/hook"},
		map[string]any{"concepts": []string{"No such concept zzz"}},
		map[string]any{"concepts": []string{}},
		map[string]any{"concepts": c, "sources": []string{"nosuchsource"}},
	)
	_, s := ingestWorld(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v2/watchlists", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fuzzEnvelope(t, http.MethodPost, "/v2/watchlists", body, rec)
		if rec.Code != http.StatusCreated {
			return
		}
		var wl struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &wl); err != nil || wl.ID == "" {
			t.Fatalf("created watchlist body %q: %v", rec.Body.String(), err)
		}
		path := "/v2/watchlists/" + wl.ID
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, path, nil))
		if del.Code != http.StatusOK {
			t.Fatalf("DELETE %s: status %d, body %q", path, del.Code, del.Body.String())
		}
	})
}

// FuzzRemoteStatsBody posts arbitrary bytes to POST
// /internal/remote-stats on a private tiny-world shard (shard 0 of 2).
// Whatever the body, the handler never panics, and every answer other
// than a 2xx is a client error carrying the /v2 error envelope with a
// code: statistics that fail validation (a negative document count,
// more batches than documents, an entity outside the graph, a document
// frequency outside [1, docs])
// are invalid_argument, never a crash deeper in the engine. Accepted
// statistics re-score the private shard, which only this target reads.
func FuzzRemoteStatsBody(f *testing.F) {
	x, h := shardServer(f)
	cur := x.Engine().RemoteStatsSnapshot()
	grown := cur
	grown.Docs++
	grown.Batches++
	ahead, behind := cur, cur
	ahead.Batches, behind.Batches = 3, 1
	addJSONSeeds(f, `{"df":`,
		cur,
		grown,
		ahead,
		behind,
		map[string]any{"docs": cur.Docs, "batches": 1, "df": map[string]int{"999999999": -100000}},
		map[string]any{"docs": -1, "batches": 1},
		map[string]any{"docs": 3, "batches": 1, "df": map[string]int{"0": 4}},
		map[string]any{"docs": 3, "batches": 1, "df": map[string]any{"x": 1, "-2": 1}},
		map[string]any{"docs": 3, "df": map[string]int{"99999999999": 1}},
		map[string]any{"docs": cur.Docs, "batches": uint64(1<<64 - 1)},
		map[string]any{"docs": 163, "batches": 0, "df": map[string]int{}},
	)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/internal/remote-stats", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fuzzEnvelope(t, http.MethodPost, "/internal/remote-stats", body, rec)
	})
}

// shardServer builds a private tiny-world shard (shard 0 of 2) behind a
// cluster-enabled server.
func shardServer(t testing.TB) (*ncexplorer.Explorer, http.Handler) {
	t.Helper()
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny", Shard: 0, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	return x, server.New(x, server.Options{EnableCluster: true}).Handler()
}

// TestRemoteStatsValidation: POST /internal/remote-stats refuses
// statistics that fail validation, or that differ from the current ones
// at the current batch count, with invalid_argument and leaves the
// generation and the answers alone, and applies valid ones.
func TestRemoteStatsValidation(t *testing.T) {
	x, h := shardServer(t)
	gen := x.Generation()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/remote-stats", bytes.NewReader([]byte(body))))
		return rec
	}
	drill := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query/drilldown",
			bytes.NewReader([]byte(`{"concepts":["Financial crime"],"k":10}`))))
		if rec.Code != http.StatusOK {
			t.Fatalf("drill-down: status %d, body %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	wantDrill := drill()
	orig := x.Engine().RemoteStatsSnapshot()
	docs := orig.Docs
	for _, body := range []string{
		fmt.Sprintf(`{"docs":%d,"batches":1,"df":{"999999999":1}}`, docs),
		fmt.Sprintf(`{"docs":%d,"batches":1,"df":{"0":-100000}}`, docs),
		`{"docs":-1,"batches":1}`,
		`{"docs":2,"batches":1,"df":{"0":3}}`,
		fmt.Sprintf(`{"docs":%d,"batches":18446744073709551615}`, docs),
		`{"docs":163,"batches":0,"df":{}}`,
	} {
		rec := post(body)
		var e v2Error
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code != "invalid_argument" {
			t.Fatalf("%s: status %d, body %s; want 400 invalid_argument", body, rec.Code, rec.Body)
		}
	}
	if x.Generation() != gen {
		t.Fatalf("refused statistics moved the generation %d -> %d", gen, x.Generation())
	}
	if got := drill(); got != wantDrill {
		t.Fatalf("refused statistics moved the drill-down:\n got %s\nwant %s", got, wantDrill)
	}
	if rec := post(fmt.Sprintf(`{"docs":%d,"batches":1}`, docs)); rec.Code != http.StatusOK || x.Generation() != gen+1 {
		t.Fatalf("valid statistics: status %d, generation %d; want 200 at %d", rec.Code, x.Generation(), gen+1)
	}

	// A batch count below the folded one would move the generation
	// backwards: after 3 remote batches, the original counts at 1 batch
	// are refused, and the generation and the answers stay.
	body := func(batches uint64) string {
		rs := orig
		rs.Batches = batches
		raw, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if rec := post(body(3)); rec.Code != http.StatusOK || x.Generation() != gen+3 {
		t.Fatalf("3 remote batches: status %d, generation %d; want 200 at %d", rec.Code, x.Generation(), gen+3)
	}
	wantDrill = drill()
	var e v2Error
	if rec := post(body(1)); rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code != "invalid_argument" {
		t.Fatalf("1 remote batch after 3: status %d, body %s; want 400 invalid_argument", rec.Code, rec.Body)
	}
	if x.Generation() != gen+3 {
		t.Fatalf("a decreasing batch count moved the generation %d -> %d", gen+3, x.Generation())
	}
	if got := drill(); got != wantDrill {
		t.Fatalf("a decreasing batch count moved the drill-down:\n got %s\nwant %s", got, wantDrill)
	}
}
