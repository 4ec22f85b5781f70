package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzV2Query posts arbitrary bytes to the /v2 JSON query endpoints of
// the package's shared tiny-world server. Whatever the body, the
// handler never panics, and every answer other than 200 is a client
// error (status below 500) carrying the /v2 error envelope with a
// non-empty code.
func FuzzV2Query(f *testing.F) {
	c := topicConcepts(f, 0)
	seeds := []any{
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
	}
	for _, s := range seeds {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"k":`))
	f.Add([]byte(""))

	h := testServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v2/query/rollup", "/v2/query/drilldown", "/v2/batch"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				continue
			}
			var e v2Error
			if rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
				t.Fatalf("POST %s %q: status %d, body %q", path, body, rec.Code, rec.Body.String())
			}
		}
	})
}
