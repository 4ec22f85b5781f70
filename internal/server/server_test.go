package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"ncexplorer"
	"ncexplorer/internal/server"
)

var (
	worldOnce sync.Once
	explorer  *ncexplorer.Explorer
	srv       *server.Server
)

// testServer builds one tiny world and one server for the whole
// package; tests share the cache, so cache-sensitive tests use their
// own distinct queries.
func testServer(t testing.TB) *server.Server {
	t.Helper()
	worldOnce.Do(func() {
		x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
		if err != nil {
			panic(err)
		}
		explorer = x
		srv = server.New(x, server.Options{})
	})
	return srv
}

// topicConcepts returns a valid two-concept query from the built-in
// evaluation topics.
func topicConcepts(t testing.TB, i int) []string {
	t.Helper()
	testServer(t) // ensure the shared world exists
	ts := explorer.EvaluationTopics()
	if len(ts) == 0 {
		t.Fatal("no evaluation topics")
	}
	tp := ts[i%len(ts)]
	return []string{tp[0], tp[1]}
}

func postJSON(t testing.TB, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(rec, req)
	return rec
}

func get(t testing.TB, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(rec, req)
	return rec
}

func decodeBody(t testing.TB, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}

func wantErrorBody(t *testing.T, rec *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d; want %d (body %q)", rec.Code, status, rec.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, rec, &e)
	if e.Error == "" {
		t.Fatalf("expected a JSON error body, got %q", rec.Body.String())
	}
}

func TestRollUpHappyPath(t *testing.T) {
	rec := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": topicConcepts(t, 0), "k": 3, "explain": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("content-type = %q", got)
	}
	var resp ncexplorer.RollUpResult
	decodeBody(t, rec, &resp)
	if resp.K != 3 || len(resp.Articles) > 3 || resp.Total < len(resp.Articles) {
		t.Fatalf("k = %d total = %d articles = %d", resp.K, resp.Total, len(resp.Articles))
	}
	if len(resp.Articles) == 0 {
		t.Fatal("expected at least one article for an evaluation topic")
	}
	for _, a := range resp.Articles {
		if a.Title == "" || len(a.Explanations) == 0 {
			t.Fatalf("article %d missing title or explanations", a.ID)
		}
	}
}

func TestRollUpCacheHitIsByteIdentical(t *testing.T) {
	body := map[string]any{"concepts": topicConcepts(t, 1), "k": 4}
	first := postJSON(t, "/v2/query/rollup", body)
	second := postJSON(t, "/v2/query/rollup", body)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses = %d, %d", first.Code, second.Code)
	}
	if second.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second request X-Cache = %q; want HIT", second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit body differs from the miss that populated it")
	}
	if st := testServer(t).CacheStats(); st.Hits == 0 {
		t.Fatalf("cache stats show no hits: %+v", st)
	}
}

func TestRollUpOrderInsensitiveCaching(t *testing.T) {
	c := topicConcepts(t, 2)
	first := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": []string{c[0], c[1]}, "k": 5})
	reversed := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": []string{c[1], c[0], c[0]}, "k": 5})
	if reversed.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("permuted duplicate query X-Cache = %q; want HIT", reversed.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), reversed.Body.Bytes()) {
		t.Fatal("permuted query body differs from canonical query body")
	}
}

func TestRollUpUnknownConcept(t *testing.T) {
	rec := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": []string{"No such concept zzz"}})
	wantV2Error(t, rec, http.StatusBadRequest, "unknown_concept")
	if !strings.Contains(rec.Body.String(), "unknown concept") {
		t.Fatalf("error body %q should name the unknown concept", rec.Body.String())
	}
}

func TestRollUpMalformedBody(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(rec, req)
	wantV2Error(t, rec, http.StatusBadRequest, "invalid_argument")
}

func TestRollUpOversizedBody(t *testing.T) {
	// Valid JSON that exceeds the 1 MiB body limit.
	huge := append([]byte(`{"concepts":["`), bytes.Repeat([]byte("x"), 2<<20)...)
	huge = append(huge, []byte(`"]}`)...)
	req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(huge))
	rec := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(rec, req)
	wantV2Error(t, rec, http.StatusRequestEntityTooLarge, "invalid_argument")
}

func TestRollUpEmptyConcepts(t *testing.T) {
	rec := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": []string{"  ", ""}})
	wantV2Error(t, rec, http.StatusBadRequest, "invalid_argument")
}

func TestRollUpNegativeK(t *testing.T) {
	rec := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": topicConcepts(t, 0), "k": -5})
	wantV2Error(t, rec, http.StatusBadRequest, "invalid_argument")
}

func TestRollUpMethodNotAllowed(t *testing.T) {
	rec := get(t, "/v2/query/rollup")
	wantV2Error(t, rec, http.StatusMethodNotAllowed, "invalid_argument")
	if got := rec.Header().Get("Allow"); got != "POST" {
		t.Fatalf("Allow = %q; want POST", got)
	}
}

func TestDrillDownHappyPath(t *testing.T) {
	rec := postJSON(t, "/v2/query/drilldown", map[string]any{"concepts": topicConcepts(t, 3), "k": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", rec.Code, rec.Body.String())
	}
	var resp ncexplorer.DrillDownResult
	decodeBody(t, rec, &resp)
	if resp.K != 5 || len(resp.Suggestions) > 5 || resp.Total < len(resp.Suggestions) {
		t.Fatalf("k = %d total = %d suggestions = %d", resp.K, resp.Total, len(resp.Suggestions))
	}
	// A repeat is a cache hit on the drilldown keyspace.
	again := postJSON(t, "/v2/query/drilldown", map[string]any{"concepts": topicConcepts(t, 3), "k": 5})
	if again.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("repeat drilldown X-Cache = %q; want HIT", again.Header().Get("X-Cache"))
	}
	if !bytes.Equal(rec.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("drilldown cache hit body differs")
	}
}

func TestConceptsForEntity(t *testing.T) {
	// Topic keywords are entity names, so they give us a valid entity.
	kws, err := explorer.TopicKeywords(topicConcepts(t, 0)[0], 1)
	if err != nil || len(kws) == 0 {
		t.Fatalf("no keywords to test with: %v", err)
	}
	rec := get(t, "/v1/concepts/"+url.PathEscape(kws[0]))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Entity   string   `json:"entity"`
		Concepts []string `json:"concepts"`
	}
	decodeBody(t, rec, &resp)
	if resp.Entity != kws[0] || len(resp.Concepts) == 0 {
		t.Fatalf("resp = %+v; want entity %q with concepts", resp, kws[0])
	}

	wantErrorBody(t, get(t, "/v1/concepts/"+url.PathEscape("No such entity zzz")), http.StatusBadRequest)
}

func TestBroaderConcepts(t *testing.T) {
	concept := topicConcepts(t, 0)[0]
	rec := get(t, "/v1/broader/"+url.PathEscape(concept))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Concept string   `json:"concept"`
		Broader []string `json:"broader"`
	}
	decodeBody(t, rec, &resp)
	if resp.Concept != concept || resp.Broader == nil {
		t.Fatalf("resp = %+v", resp)
	}

	wantErrorBody(t, get(t, "/v1/broader/"+url.PathEscape("No such concept zzz")), http.StatusBadRequest)
}

func TestKeywords(t *testing.T) {
	concept := topicConcepts(t, 1)[0]
	rec := get(t, "/v1/keywords/"+url.PathEscape(concept)+"?n=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Concept  string   `json:"concept"`
		Keywords []string `json:"keywords"`
	}
	decodeBody(t, rec, &resp)
	if resp.Concept != concept || len(resp.Keywords) == 0 || len(resp.Keywords) > 5 {
		t.Fatalf("resp = %+v", resp)
	}

	wantErrorBody(t, get(t, "/v1/keywords/"+url.PathEscape(concept)+"?n=bogus"), http.StatusBadRequest)
	wantErrorBody(t, get(t, "/v1/keywords/"+url.PathEscape("No such concept zzz")), http.StatusBadRequest)

	// A huge n must be clamped, not pre-allocated.
	rec = get(t, "/v1/keywords/"+url.PathEscape(concept)+"?n=2000000000")
	if rec.Code != http.StatusOK {
		t.Fatalf("huge n status = %d; body %q", rec.Code, rec.Body.String())
	}
	decodeBody(t, rec, &resp)
	if len(resp.Keywords) > 100 {
		t.Fatalf("huge n returned %d keywords; want clamp to MaxK", len(resp.Keywords))
	}
}

func TestTopics(t *testing.T) {
	rec := get(t, "/v1/topics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Topics []struct {
			Concept string `json:"concept"`
			Group   string `json:"group"`
		} `json:"topics"`
	}
	decodeBody(t, rec, &resp)
	if len(resp.Topics) != 6 {
		t.Fatalf("got %d topics; want the paper's 6", len(resp.Topics))
	}
	for _, tp := range resp.Topics {
		if tp.Concept == "" || tp.Group == "" {
			t.Fatalf("incomplete topic %+v", tp)
		}
	}
}

func TestHealthz(t *testing.T) {
	rec := get(t, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Status   string `json:"status"`
		Articles int    `json:"articles"`
	}
	decodeBody(t, rec, &resp)
	if resp.Status != "ok" || resp.Articles != explorer.NumArticles() {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestStatsz(t *testing.T) {
	// Generate at least one miss and one hit on a private key.
	body := map[string]any{"concepts": topicConcepts(t, 4), "k": 7}
	postJSON(t, "/v2/query/rollup", body)
	postJSON(t, "/v2/query/rollup", body)

	rec := get(t, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Index struct {
			Articles    int `json:"articles"`
			Concepts    int `json:"concepts"`
			Nodes       int `json:"nodes"`
			EngineCache map[string]struct {
				Hits    int64 `json:"hits"`
				Misses  int64 `json:"misses"`
				Entries int64 `json:"entries"`
			} `json:"engine_cache"`
			Ingest struct {
				ConnWalks int64 `json:"conn_walks"`
			} `json:"ingest"`
		} `json:"index"`
		Cache struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int64 `json:"entries"`
		} `json:"cache"`
		Requests struct {
			Total   int64            `json:"total"`
			Errors  int64            `json:"errors"`
			ByRoute map[string]int64 `json:"by_route"`
		} `json:"requests"`
	}
	decodeBody(t, rec, &resp)
	if resp.Index.Articles != explorer.NumArticles() || resp.Index.Concepts == 0 || resp.Index.Nodes == 0 {
		t.Fatalf("index stats = %+v", resp.Index)
	}
	if resp.Cache.Misses == 0 || resp.Cache.Hits == 0 || resp.Cache.Entries == 0 {
		t.Fatalf("cache stats = %+v; want visible misses, hits, and entries", resp.Cache)
	}
	// The engine-side numbers must be threaded through: the match stats
	// report the swap-time query plans — the only engine cache left —
	// and the walk counter the context factors the seed build walked.
	ec := resp.Index.EngineCache
	if len(ec) != 1 || ec["match"].Entries == 0 {
		t.Fatalf("engine cache stats = %+v, want only the query plans' match entries", ec)
	}
	if resp.Index.Ingest.ConnWalks == 0 {
		t.Fatalf("ingest.conn_walks = 0, want the seed build's walks")
	}
	if resp.Requests.Total == 0 || resp.Requests.ByRoute["v2rollup"] < 2 || resp.Requests.ByRoute["statsz"] == 0 {
		t.Fatalf("request stats = %+v", resp.Requests)
	}
}

func TestUnknownPath(t *testing.T) {
	wantErrorBody(t, get(t, "/v1/nope"), http.StatusNotFound)
}

// TestConcurrentIdenticalRollUps hammers one cold query from many
// goroutines; singleflight means every response must be identical, and
// the whole path must be race-free under -race.
func TestConcurrentIdenticalRollUps(t *testing.T) {
	s := testServer(t)
	raw, _ := json.Marshal(map[string]any{"concepts": topicConcepts(t, 5), "k": 9})
	const n = 24
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
				return
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestCacheDisabled checks that a negative capacity still serves
// correct responses without retaining entries.
func TestCacheDisabled(t *testing.T) {
	testServer(t)
	s := server.New(explorer, server.Options{CacheCapacity: -1})
	raw, _ := json.Marshal(map[string]any{"concepts": topicConcepts(t, 0), "k": 2})
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get("X-Cache"); got != "MISS" {
			t.Fatalf("request %d X-Cache = %q; want MISS with caching disabled", i, got)
		}
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("disabled cache retained %d entries", st.Entries)
	}
}

// The serving benchmarks (cached vs uncached) live in the root
// package's bench_test.go as BenchmarkServerRollUp.
