package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ncexplorer"
	"ncexplorer/internal/server"
)

// ingestWorld builds a private explorer+server pair with ingestion
// enabled (the shared package world must stay immutable for the other
// tests).
func ingestWorld(t testing.TB) (*ncexplorer.Explorer, *server.Server) {
	t.Helper()
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	return x, server.New(x, server.Options{EnableIngest: true, MaxIngestBatch: 16})
}

func serve(t testing.TB, s *server.Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, reader)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestIngestEndpointDisabledByDefault(t *testing.T) {
	rec := postJSON(t, "/v2/ingest", map[string]any{
		"articles": []map[string]string{{"source": "reuters", "title": "t", "body": "b"}},
	})
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", rec.Code)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	decodeBody(t, rec, &env)
	if env.Error.Code != string(ncexplorer.CodePermissionDenied) {
		t.Fatalf("code = %q, want permission_denied", env.Error.Code)
	}
}

// TestIngestEndpoint drives the full freshness loop over HTTP: cache
// a query, ingest new articles, and verify the next identical query
// misses the cache and is served from the new generation — without
// any explicit cache flush.
func TestIngestEndpoint(t *testing.T) {
	x, s := ingestWorld(t)
	tp := x.EvaluationTopics()[0]
	query := map[string]any{"concepts": []string{tp[0]}, "k": 3}

	// Warm the roll-up and drill-down caches.
	for _, path := range []string{"/v2/query/rollup", "/v2/query/drilldown"} {
		if rec := serve(t, s, http.MethodPost, path, query); rec.Code != 200 {
			t.Fatalf("%s warmup: %d %s", path, rec.Code, rec.Body.String())
		}
		rec := serve(t, s, http.MethodPost, path, query)
		if rec.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("%s second call should HIT, got %s", path, rec.Header().Get("X-Cache"))
		}
	}

	arts, err := x.SampleArticles(777, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(t, s, http.MethodPost, "/v2/ingest", map[string]any{"articles": arts})
	if rec.Code != 200 {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	var res ncexplorer.IngestResult
	decodeBody(t, rec, &res)
	if res.Accepted != 9 || res.Generation != 2 {
		t.Fatalf("ingest result = %+v", res)
	}

	// The retained pre-ingest bodies must now be unreachable.
	for _, path := range []string{"/v2/query/rollup", "/v2/query/drilldown"} {
		rec := serve(t, s, http.MethodPost, path, query)
		if rec.Code != 200 {
			t.Fatalf("%s post-ingest: %d", path, rec.Code)
		}
		if got := rec.Header().Get("X-Cache"); got != "MISS" {
			t.Fatalf("%s after ingest served %s, want MISS (stale cache)", path, got)
		}
	}
	var v2 ncexplorer.RollUpResult
	rec = serve(t, s, http.MethodPost, "/v2/query/rollup", query)
	decodeBody(t, rec, &v2)
	if v2.Generation != 2 {
		t.Fatalf("post-ingest query served at generation %d, want 2", v2.Generation)
	}

	// /statsz reflects the new index shape.
	rec = serve(t, s, http.MethodGet, "/statsz", nil)
	var stats struct {
		Index ncexplorer.Stats `json:"index"`
	}
	decodeBody(t, rec, &stats)
	if stats.Index.Generation != 2 || len(stats.Index.Segments) != 2 ||
		stats.Index.Ingest.Batches != 1 || stats.Index.Ingest.Docs != 9 {
		t.Fatalf("statsz index = generation %d segments %v ingest %+v",
			stats.Index.Generation, stats.Index.Segments, stats.Index.Ingest)
	}
}

func TestIngestEndpointValidation(t *testing.T) {
	_, s := ingestWorld(t)
	if rec := serve(t, s, http.MethodPost, "/v2/ingest", map[string]any{"articles": []any{}}); rec.Code != 400 {
		t.Fatalf("empty batch: %d", rec.Code)
	}
	big := make([]map[string]string, 17)
	for i := range big {
		big[i] = map[string]string{"source": "nyt", "title": "t", "body": "b"}
	}
	if rec := serve(t, s, http.MethodPost, "/v2/ingest", map[string]any{"articles": big}); rec.Code != 400 {
		t.Fatalf("oversized batch: %d", rec.Code)
	}
	rec := serve(t, s, http.MethodPost, "/v2/ingest", map[string]any{
		"articles": []map[string]string{{"source": "faxnews", "title": "t", "body": "b"}},
	})
	if rec.Code != 400 {
		t.Fatalf("unknown source: %d", rec.Code)
	}
	var env struct {
		Error struct {
			Code    string         `json:"code"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	decodeBody(t, rec, &env)
	if env.Error.Code != string(ncexplorer.CodeInvalidArgument) {
		t.Fatalf("code = %q", env.Error.Code)
	}
	if env.Error.Details["valid_sources"] == nil {
		t.Fatal("unknown-source error should list valid sources")
	}
}

// TestResetQueryCachesInvalidatesServerCache pins the cross-layer
// cache-coherence fix: ResetQueryCaches used to clear only the
// engine's memo caches while the HTTP result cache kept serving
// retained bodies. Both now roll off the same epoch.
func TestResetQueryCachesInvalidatesServerCache(t *testing.T) {
	x, s := ingestWorld(t)
	tp := x.EvaluationTopics()[1]
	query := map[string]any{"concepts": []string{tp[0], tp[1]}, "k": 4}

	first := serve(t, s, http.MethodPost, "/v2/query/rollup", query)
	if first.Code != 200 {
		t.Fatalf("warmup: %d", first.Code)
	}
	if rec := serve(t, s, http.MethodPost, "/v2/query/rollup", query); rec.Header().Get("X-Cache") != "HIT" {
		t.Fatal("second call should HIT")
	}
	x.ResetQueryCaches()
	rec := serve(t, s, http.MethodPost, "/v2/query/rollup", query)
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("after ResetQueryCaches served %s, want MISS", got)
	}
	// Determinism: the refilled body is byte-identical to the original.
	if !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("refilled body differs from the original fill")
	}
}
