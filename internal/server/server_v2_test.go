package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ncexplorer"
	"ncexplorer/internal/server"
)

// v2Error decodes the structured envelope every /v2 endpoint shares.
type v2Error struct {
	Error struct {
		Code    string         `json:"code"`
		Message string         `json:"message"`
		Details map[string]any `json:"details"`
	} `json:"error"`
}

func wantV2Error(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) v2Error {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d; want %d (body %q)", rec.Code, status, rec.Body.String())
	}
	var e v2Error
	decodeBody(t, rec, &e)
	if e.Error.Code != code {
		t.Fatalf("error code = %q; want %q (body %q)", e.Error.Code, code, rec.Body.String())
	}
	if e.Error.Message == "" {
		t.Fatalf("empty error message in %q", rec.Body.String())
	}
	return e
}

// rollUpPage decodes a /v2/query/rollup response.
type rollUpPage struct {
	Query      []string        `json:"query"`
	K          int             `json:"k"`
	Offset     int             `json:"offset"`
	Total      int             `json:"total"`
	NextOffset int             `json:"next_offset"`
	Articles   json.RawMessage `json:"articles"`
}

func postRollUpV2(t testing.TB, body any) *httptest.ResponseRecorder {
	return postJSON(t, "/v2/query/rollup", body)
}

func TestV2RollUpPagination(t *testing.T) {
	concepts := topicConcepts(t, 0)

	// One big page is the reference.
	recAll := postRollUpV2(t, map[string]any{"concepts": concepts, "k": 6, "explain": true})
	if recAll.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", recAll.Code, recAll.Body.String())
	}
	var all rollUpPage
	decodeBody(t, recAll, &all)
	var allArticles []ncexplorer.Article
	if err := json.Unmarshal(all.Articles, &allArticles); err != nil {
		t.Fatal(err)
	}
	if len(allArticles) < 4 {
		t.Skipf("world too small for pagination test: %d articles", len(allArticles))
	}
	if all.Total < len(allArticles) {
		t.Fatalf("total %d < returned %d", all.Total, len(allArticles))
	}

	// Walk the same listing in pages of 2 and stitch.
	var stitched []ncexplorer.Article
	offset := 0
	for offset >= 0 && len(stitched) < len(allArticles) {
		rec := postRollUpV2(t, map[string]any{
			"concepts": concepts, "k": 2, "offset": offset, "explain": true,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("offset %d status = %d; body %q", offset, rec.Code, rec.Body.String())
		}
		var page rollUpPage
		decodeBody(t, rec, &page)
		if page.Total != all.Total {
			t.Fatalf("page total %d != reference total %d", page.Total, all.Total)
		}
		var arts []ncexplorer.Article
		if err := json.Unmarshal(page.Articles, &arts); err != nil {
			t.Fatal(err)
		}
		stitched = append(stitched, arts...)
		if page.NextOffset >= 0 && page.NextOffset != offset+len(arts) {
			t.Fatalf("next_offset = %d; want %d", page.NextOffset, offset+len(arts))
		}
		offset = page.NextOffset
	}
	for i := range allArticles {
		if i >= len(stitched) || stitched[i].ID != allArticles[i].ID {
			t.Fatalf("stitched pages diverge from the single page at rank %d", i)
		}
	}

	// An offset past the end returns an empty page and a -1 cursor —
	// including a hostile multi-billion offset, which must not turn
	// into a giant allocation.
	for _, off := range []int{100000, 2_000_000_000} {
		rec := postRollUpV2(t, map[string]any{"concepts": concepts, "k": 3, "offset": off})
		if rec.Code != http.StatusOK {
			t.Fatalf("offset %d status = %d; body %q", off, rec.Code, rec.Body.String())
		}
		var past rollUpPage
		decodeBody(t, rec, &past)
		var pastArts []ncexplorer.Article
		json.Unmarshal(past.Articles, &pastArts)
		if len(pastArts) != 0 || past.NextOffset != -1 {
			t.Fatalf("offset %d: %d articles, next_offset %d", off, len(pastArts), past.NextOffset)
		}
	}
}

func TestV2RollUpFiltersAndExplain(t *testing.T) {
	concepts := topicConcepts(t, 1)
	rec := postRollUpV2(t, map[string]any{"concepts": concepts, "k": 8, "sources": []string{"reuters"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body %q", rec.Code, rec.Body.String())
	}
	var page rollUpPage
	decodeBody(t, rec, &page)
	var arts []ncexplorer.Article
	if err := json.Unmarshal(page.Articles, &arts); err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		if a.Source != "reuters" {
			t.Fatalf("source filter leaked article from %q", a.Source)
		}
		if len(a.Explanations) != 0 {
			t.Fatal("explain defaulted on: articles carry explanations")
		}
	}

	// min_score excludes everything below the floor and total reflects it.
	ref := postRollUpV2(t, map[string]any{"concepts": concepts, "k": 8, "explain": true})
	var refPage rollUpPage
	decodeBody(t, ref, &refPage)
	var refArts []ncexplorer.Article
	json.Unmarshal(refPage.Articles, &refArts)
	if len(refArts) < 2 {
		t.Skip("not enough articles to exercise min_score")
	}
	floor := refArts[1].Score
	rec = postRollUpV2(t, map[string]any{"concepts": concepts, "k": 8, "min_score": floor})
	var filtered rollUpPage
	decodeBody(t, rec, &filtered)
	var filteredArts []ncexplorer.Article
	json.Unmarshal(filtered.Articles, &filteredArts)
	for _, a := range filteredArts {
		if a.Score < floor {
			t.Fatalf("min_score %g leaked score %g", floor, a.Score)
		}
	}
	if filtered.Total >= refPage.Total {
		t.Fatalf("min_score did not reduce total: %d >= %d", filtered.Total, refPage.Total)
	}
}

func TestV2ErrorEnvelope(t *testing.T) {
	// Malformed body.
	req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(rec, req)
	wantV2Error(t, rec, http.StatusBadRequest, "invalid_argument")

	// Unknown concept carries nearest-concept suggestions. Use a
	// near-miss of a real concept so the suggester has something to say.
	real := topicConcepts(t, 0)[0]
	typo := real + "z"
	e := wantV2Error(t, postRollUpV2(t, map[string]any{"concepts": []string{typo}}),
		http.StatusBadRequest, "unknown_concept")
	sugg, ok := e.Error.Details["suggestions"].([]any)
	if !ok || len(sugg) == 0 {
		t.Fatalf("unknown_concept details lack suggestions: %v", e.Error.Details)
	}
	found := false
	for _, s := range sugg {
		if s == real {
			found = true
		}
	}
	if !found {
		t.Fatalf("suggestions %v do not include %q", sugg, real)
	}

	// Invalid paging and filter arguments.
	concepts := topicConcepts(t, 0)
	wantV2Error(t, postRollUpV2(t, map[string]any{"concepts": concepts, "k": -1}),
		http.StatusBadRequest, "invalid_argument")
	wantV2Error(t, postRollUpV2(t, map[string]any{"concepts": concepts, "offset": -2}),
		http.StatusBadRequest, "invalid_argument")
	wantV2Error(t, postRollUpV2(t, map[string]any{"concepts": concepts, "min_score": -0.5}),
		http.StatusBadRequest, "invalid_argument")
	wantV2Error(t, postRollUpV2(t, map[string]any{"concepts": []string{"", "  "}}),
		http.StatusBadRequest, "invalid_argument")

	// Unknown source names the valid ones.
	e = wantV2Error(t, postRollUpV2(t, map[string]any{"concepts": concepts, "sources": []string{"bbc"}}),
		http.StatusBadRequest, "invalid_argument")
	if _, ok := e.Error.Details["valid_sources"]; !ok {
		t.Fatalf("unknown source details lack valid_sources: %v", e.Error.Details)
	}

	// Unknown /v2 path and wrong method use the envelope too.
	wantV2Error(t, get(t, "/v2/nope"), http.StatusNotFound, "not_found")
	wantV2Error(t, get(t, "/v2/query/rollup"), http.StatusMethodNotAllowed, "invalid_argument")
}

func TestV2CancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw, _ := json.Marshal(map[string]any{
		// A fresh concept set so the result cannot already be cached.
		"concepts": topicConcepts(t, 2), "k": 17, "offset": 3,
	})
	req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(rec, req)
	wantV2Error(t, rec, 499, "cancelled")
}

// TestV1EnvelopeCompat pins the /v1 error shape — a flat string — on
// the graph reads and unknown paths, so the structured v2 envelope
// cannot leak backwards.
func TestV1EnvelopeCompat(t *testing.T) {
	cases := []*httptest.ResponseRecorder{
		get(t, "/v1/keywords/whatever?n=0"),
		get(t, "/v1/keywords/whatever?n=-3"),
		get(t, "/v1/nope"),
	}
	for i, rec := range cases {
		if rec.Code == http.StatusOK {
			t.Fatalf("case %d unexpectedly succeeded", i)
		}
		var flat struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &flat); err != nil || flat.Error == "" {
			t.Fatalf("case %d: /v1 error is not a flat string envelope: %q", i, rec.Body.String())
		}
	}
}

// TestBatchMatchesSequential is the acceptance check for /v2/batch:
// 8 mixed queries in one POST return exactly the payloads of 8
// sequential single calls.
func TestBatchMatchesSequential(t *testing.T) {
	var queries []map[string]any
	for i := 0; i < 4; i++ {
		c := topicConcepts(t, i)
		queries = append(queries,
			map[string]any{"op": "rollup", "concepts": c, "k": 3 + i, "explain": i%2 == 0},
			map[string]any{"op": "drilldown", "concepts": c[:1], "k": 4, "offset": i, "explain": true},
		)
	}

	// Sequential single calls first (also warms the cache the batch
	// must hit — byte-identity is the point).
	var want [][]byte
	for _, q := range queries {
		path := "/v2/query/" + q["op"].(string)
		rec := postJSON(t, path, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("single %v status = %d; body %q", q, rec.Code, rec.Body.String())
		}
		want = append(want, bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")))
	}

	rec := postJSON(t, "/v2/batch", map[string]any{"queries": queries})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d; body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	decodeBody(t, rec, &resp)
	if resp.Count != len(queries) || len(resp.Results) != len(queries) {
		t.Fatalf("batch count = %d results = %d; want %d", resp.Count, len(resp.Results), len(queries))
	}
	for i := range queries {
		if !bytes.Equal(resp.Results[i], want[i]) {
			t.Fatalf("batch result %d differs from the single call:\nbatch:  %s\nsingle: %s",
				i, resp.Results[i], want[i])
		}
	}
}

func TestBatchPartialFailureAndLimits(t *testing.T) {
	c := topicConcepts(t, 0)
	rec := postJSON(t, "/v2/batch", map[string]any{"queries": []map[string]any{
		{"op": "rollup", "concepts": c, "k": 2},
		{"op": "rollup", "concepts": []string{"No such concept zzz"}},
		{"op": "frobnicate", "concepts": c},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d; body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	decodeBody(t, rec, &resp)
	var page rollUpPage
	if err := json.Unmarshal(resp.Results[0], &page); err != nil || page.K != 2 {
		t.Fatalf("healthy sibling failed: %s", resp.Results[0])
	}
	var e1, e2 v2Error
	if err := json.Unmarshal(resp.Results[1], &e1); err != nil || e1.Error.Code != "unknown_concept" {
		t.Fatalf("item 1 = %s; want unknown_concept envelope", resp.Results[1])
	}
	if err := json.Unmarshal(resp.Results[2], &e2); err != nil || e2.Error.Code != "invalid_argument" {
		t.Fatalf("item 2 = %s; want invalid_argument envelope", resp.Results[2])
	}

	// Empty and oversized batches are rejected as a whole.
	wantV2Error(t, postJSON(t, "/v2/batch", map[string]any{"queries": []any{}}),
		http.StatusBadRequest, "invalid_argument")
	big := make([]map[string]any, 65)
	for i := range big {
		big[i] = map[string]any{"op": "rollup", "concepts": c}
	}
	wantV2Error(t, postJSON(t, "/v2/batch", map[string]any{"queries": big}),
		http.StatusBadRequest, "invalid_argument")
}

// sessionResponse decodes the session envelope.
type sessionResponse struct {
	Session struct {
		ID       string   `json:"id"`
		Concepts []string `json:"concepts"`
		Depth    int      `json:"depth"`
		Steps    []struct {
			Op      string `json:"op"`
			Concept string `json:"concept"`
		} `json:"steps"`
	} `json:"session"`
	Result json.RawMessage `json:"result"`
}

// articlesOf extracts the raw "articles" value from a rollup response
// body.
func articlesOf(t *testing.T, body []byte) []byte {
	t.Helper()
	var probe struct {
		Articles json.RawMessage `json:"articles"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatalf("no articles in %s: %v", body, err)
	}
	return probe.Articles
}

// TestSessionWalkthrough is the acceptance test: a scripted session —
// create → rollup → drilldown (refine) → drilldown (refine) → back →
// rollup — reproduces byte-identical articles to the equivalent
// stateless /v2/query/rollup calls. The suite runs under -race in CI.
func TestSessionWalkthrough(t *testing.T) {
	base := topicConcepts(t, 3)

	// Create.
	rec := postJSON(t, "/v2/sessions", map[string]any{"concepts": base})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status = %d; body %q", rec.Code, rec.Body.String())
	}
	var created sessionResponse
	decodeBody(t, rec, &created)
	id := created.Session.ID
	if id == "" || created.Session.Depth != 0 {
		t.Fatalf("created session = %+v", created.Session)
	}
	sessionPath := "/v2/sessions/" + id

	// Helper: the stateless articles for a concept set.
	statelessArticles := func(concepts []string, k int) []byte {
		rec := postJSON(t, "/v2/query/rollup", map[string]any{"concepts": concepts, "k": k, "explain": true})
		if rec.Code != http.StatusOK {
			t.Fatalf("/v2/query/rollup %v status = %d; body %q", concepts, rec.Code, rec.Body.String())
		}
		return articlesOf(t, rec.Body.Bytes())
	}

	// Step 1 — roll up the base pattern, with explanations.
	rec = postJSON(t, sessionPath+"/rollup", map[string]any{"k": 5, "explain": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("session rollup status = %d; body %q", rec.Code, rec.Body.String())
	}
	var r1 sessionResponse
	decodeBody(t, rec, &r1)
	if !bytes.Equal(articlesOf(t, r1.Result), statelessArticles(base, 5)) {
		t.Fatal("session rollup articles differ from the stateless rollup")
	}

	// Step 2 — drill down and refine with the top suggestion not
	// already in the pattern.
	pickSuggestion := func(result json.RawMessage, avoid []string) string {
		var dd struct {
			Suggestions []ncexplorer.SubtopicSuggestion `json:"suggestions"`
		}
		if err := json.Unmarshal(result, &dd); err != nil {
			t.Fatal(err)
		}
		for _, s := range dd.Suggestions {
			inPattern := false
			for _, c := range avoid {
				if c == s.Concept {
					inPattern = true
				}
			}
			if !inPattern {
				return s.Concept
			}
		}
		t.Skip("no refinable suggestion in this world")
		return ""
	}

	rec = postJSON(t, sessionPath+"/drilldown", map[string]any{"k": 8})
	if rec.Code != http.StatusOK {
		t.Fatalf("session drilldown status = %d; body %q", rec.Code, rec.Body.String())
	}
	var d1 sessionResponse
	decodeBody(t, rec, &d1)
	sel1 := pickSuggestion(d1.Result, d1.Session.Concepts)
	rec = postJSON(t, sessionPath+"/drilldown", map[string]any{"k": 8, "select": sel1})
	if rec.Code != http.StatusOK {
		t.Fatalf("refining drilldown status = %d; body %q", rec.Code, rec.Body.String())
	}
	decodeBody(t, rec, &d1)
	if d1.Session.Depth != 1 || len(d1.Session.Concepts) != len(base)+1 {
		t.Fatalf("after first refine: %+v", d1.Session)
	}
	refined1 := d1.Session.Concepts

	// Step 3 — second drill-down + refine from the refined pattern.
	rec = postJSON(t, sessionPath+"/drilldown", map[string]any{"k": 8})
	var d2 sessionResponse
	decodeBody(t, rec, &d2)
	sel2 := pickSuggestion(d2.Result, d2.Session.Concepts)
	rec = postJSON(t, sessionPath+"/drilldown", map[string]any{"k": 8, "select": sel2})
	if rec.Code != http.StatusOK {
		t.Fatalf("second refine status = %d; body %q", rec.Code, rec.Body.String())
	}
	decodeBody(t, rec, &d2)
	if d2.Session.Depth != 2 {
		t.Fatalf("after second refine: %+v", d2.Session)
	}

	// Step 4 — back pops to the first refinement.
	rec = postJSON(t, sessionPath+"/back", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("back status = %d; body %q", rec.Code, rec.Body.String())
	}
	var b1 sessionResponse
	decodeBody(t, rec, &b1)
	if fmt.Sprint(b1.Session.Concepts) != fmt.Sprint(refined1) || b1.Session.Depth != 1 {
		t.Fatalf("after back: %+v; want pattern %v", b1.Session, refined1)
	}

	// Step 5 — roll up the restored pattern: byte-identical to the
	// stateless call on the same concepts.
	rec = postJSON(t, sessionPath+"/rollup", map[string]any{"k": 5, "explain": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("final rollup status = %d; body %q", rec.Code, rec.Body.String())
	}
	var r2 sessionResponse
	decodeBody(t, rec, &r2)
	if !bytes.Equal(articlesOf(t, r2.Result), statelessArticles(refined1, 5)) {
		t.Fatal("post-back session rollup differs from the stateless rollup on the same pattern")
	}

	// The breadcrumb trail recorded the whole walk.
	var ops []string
	for _, st := range r2.Session.Steps {
		ops = append(ops, st.Op)
	}
	want := []string{"create", "refine", "refine", "back"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("breadcrumbs = %v; want %v", ops, want)
	}

	// GET, list, delete.
	rec = get(t, sessionPath)
	if rec.Code != http.StatusOK {
		t.Fatalf("get session status = %d", rec.Code)
	}
	rec = get(t, "/v2/sessions")
	var list struct {
		Count int `json:"count"`
	}
	decodeBody(t, rec, &list)
	if list.Count == 0 {
		t.Fatal("session listing is empty")
	}
	req := httptest.NewRequest(http.MethodDelete, sessionPath, nil)
	del := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(del, req)
	if del.Code != http.StatusOK {
		t.Fatalf("delete status = %d", del.Code)
	}
	wantV2Error(t, get(t, sessionPath), http.StatusNotFound, "not_found")
}

// TestSessionRollUpRejectedRequestLeavesStateUntouched pins that a
// session rollup failing validation (here: a bad offset alongside a
// pattern replacement) does not mutate the session.
func TestSessionRollUpRejectedRequestLeavesStateUntouched(t *testing.T) {
	base := topicConcepts(t, 1)
	rec := postJSON(t, "/v2/sessions", map[string]any{"concepts": base})
	var created sessionResponse
	decodeBody(t, rec, &created)
	path := "/v2/sessions/" + created.Session.ID

	other := topicConcepts(t, 2)[:1]
	wantV2Error(t, postJSON(t, path+"/rollup", map[string]any{"concepts": other, "offset": -1}),
		http.StatusBadRequest, "invalid_argument")

	rec = get(t, path)
	var after sessionResponse
	decodeBody(t, rec, &after)
	if fmt.Sprint(after.Session.Concepts) != fmt.Sprint(created.Session.Concepts) || after.Session.Depth != 0 {
		t.Fatalf("rejected rollup mutated the session: %+v", after.Session)
	}
}

// TestSessionBodyFreeNavigation pins that the navigation endpoints
// accept an entirely empty body (every field is optional).
func TestSessionBodyFreeNavigation(t *testing.T) {
	rec := postJSON(t, "/v2/sessions", map[string]any{"concepts": topicConcepts(t, 5)})
	var created sessionResponse
	decodeBody(t, rec, &created)
	path := "/v2/sessions/" + created.Session.ID

	for _, sub := range []string{"/rollup", "/drilldown"} {
		req := httptest.NewRequest(http.MethodPost, path+sub, nil)
		rec := httptest.NewRecorder()
		testServer(t).Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("body-free %s status = %d; body %q", sub, rec.Code, rec.Body.String())
		}
	}
	// Truncated JSON is still malformed.
	req := httptest.NewRequest(http.MethodPost, path+"/rollup", strings.NewReader(`{"k":`))
	bad := httptest.NewRecorder()
	testServer(t).Handler().ServeHTTP(bad, req)
	wantV2Error(t, bad, http.StatusBadRequest, "invalid_argument")
}

func TestSessionErrors(t *testing.T) {
	// Unknown session.
	wantV2Error(t, postJSON(t, "/v2/sessions/sess-nope/rollup", map[string]any{"k": 3}),
		http.StatusNotFound, "not_found")
	// Create with an unknown concept: suggestions included.
	e := wantV2Error(t, postJSON(t, "/v2/sessions",
		map[string]any{"concepts": []string{topicConcepts(t, 0)[0] + "z"}}),
		http.StatusBadRequest, "unknown_concept")
	if _, ok := e.Error.Details["suggestions"]; !ok {
		t.Fatalf("create error lacks suggestions: %v", e.Error.Details)
	}
	// Empty pattern.
	wantV2Error(t, postJSON(t, "/v2/sessions", map[string]any{"concepts": []string{}}),
		http.StatusBadRequest, "invalid_argument")

	// Back at the root.
	rec := postJSON(t, "/v2/sessions", map[string]any{"concepts": topicConcepts(t, 0)})
	var created sessionResponse
	decodeBody(t, rec, &created)
	wantV2Error(t, postJSON(t, "/v2/sessions/"+created.Session.ID+"/back", nil),
		http.StatusConflict, "no_history")
	// Refining with a concept already in the pattern.
	wantV2Error(t, postJSON(t, "/v2/sessions/"+created.Session.ID+"/drilldown",
		map[string]any{"k": 3, "select": created.Session.Concepts[0]}),
		http.StatusBadRequest, "invalid_argument")
}

// TestSessionTTLExpiry drives the server's session store with a fake
// clock: an idle session expires, answers 410 session_expired once,
// then 404.
func TestSessionTTLExpiry(t *testing.T) {
	testServer(t) // build the shared world
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
	}
	s := server.New(explorer, server.Options{SessionTTL: 10 * time.Minute, Clock: clock})
	do := func(method, path string, body any) *httptest.ResponseRecorder {
		var rd *bytes.Reader
		if body != nil {
			raw, _ := json.Marshal(body)
			rd = bytes.NewReader(raw)
		} else {
			rd = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	rec := do(http.MethodPost, "/v2/sessions", map[string]any{"concepts": topicConcepts(t, 0)})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status = %d; body %q", rec.Code, rec.Body.String())
	}
	var created sessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	path := "/v2/sessions/" + created.Session.ID

	advance(9 * time.Minute)
	if rec := do(http.MethodPost, path+"/rollup", map[string]any{"k": 2}); rec.Code != http.StatusOK {
		t.Fatalf("pre-expiry rollup status = %d; body %q", rec.Code, rec.Body.String())
	}
	// The rollup refreshed the TTL; idle past it and the session is gone.
	advance(11 * time.Minute)
	rec = do(http.MethodPost, path+"/rollup", map[string]any{"k": 2})
	if rec.Code != http.StatusGone {
		t.Fatalf("post-expiry status = %d; body %q", rec.Code, rec.Body.String())
	}
	var e v2Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != "session_expired" {
		t.Fatalf("post-expiry envelope = %q", rec.Body.String())
	}
	rec = do(http.MethodGet, path, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("second post-expiry access status = %d", rec.Code)
	}
}

// TestV2ConcurrentMixedTraffic hammers typed queries, batch, and one
// shared session concurrently — the -race proof for the v2 surface.
func TestV2ConcurrentMixedTraffic(t *testing.T) {
	s := testServer(t)
	rec := postJSON(t, "/v2/sessions", map[string]any{"concepts": topicConcepts(t, 4)})
	var created sessionResponse
	decodeBody(t, rec, &created)
	id := created.Session.ID

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var raw []byte
				var path string
				switch (g + i) % 3 {
				case 0:
					path = "/v2/query/rollup"
					raw, _ = json.Marshal(map[string]any{"concepts": topicConcepts(t, i), "k": 3})
				case 1:
					path = "/v2/batch"
					raw, _ = json.Marshal(map[string]any{"queries": []map[string]any{
						{"op": "rollup", "concepts": topicConcepts(t, i), "k": 2},
						{"op": "drilldown", "concepts": topicConcepts(t, i)[:1], "k": 2},
					}})
				case 2:
					path = "/v2/sessions/" + id + "/rollup"
					raw, _ = json.Marshal(map[string]any{"k": 2})
				}
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s status = %d; body %q", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
