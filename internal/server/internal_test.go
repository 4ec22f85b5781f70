package server_test

import (
	"bytes"
	"net/http"
	"testing"

	"ncexplorer"
	"ncexplorer/internal/core"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/server"
)

// TestInternalPartialsCached: both drill-down scatter phases answer a
// repeated call from the result cache with the same frame bytes, and
// an ingest strands the cached frames, so the next call carries the
// new generation.
func TestInternalPartialsCached(t *testing.T) {
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(x, server.Options{EnableCluster: true, EnableIngest: true, MaxIngestBatch: 16})
	concept := x.EvaluationTopics()[0][0]

	// call posts one phase request twice: the first is a miss, the
	// second must be a hit with the first's bytes.
	call := func(path string, req server.PartialsRequest) []byte {
		t.Helper()
		var frames [2][]byte
		for i := range frames {
			before := s.CacheStats()
			rec := serve(t, s, http.MethodPost, path, req)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != core.PartialsContentType {
				t.Fatalf("%s: %d %s %q", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
			}
			after := s.CacheStats()
			if hit := after.Hits > before.Hits; hit != (i == 1) {
				t.Fatalf("%s call %d: cache hits %d → %d", path, i+1, before.Hits, after.Hits)
			}
			frames[i] = rec.Body.Bytes()
		}
		if !bytes.Equal(frames[0], frames[1]) {
			t.Fatalf("%s: the cached frame differs from the computed one", path)
		}
		return frames[0]
	}
	// phases runs both phases for the concept, the diversity phase
	// over the first few concepts of the rows, and decodes the frames.
	phases := func() (core.DrillDownPartial, core.DiversityPartial) {
		t.Helper()
		var rows core.DrillDownPartial
		if err := rows.UnmarshalBinary(call("/internal/query/drilldown-partials",
			server.PartialsRequest{Concepts: []string{concept}})); err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) == 0 {
			t.Fatalf("%q matched no rows", concept)
		}
		var short []kg.NodeID
		for _, row := range rows.Rows[:min(3, len(rows.Rows))] {
			short = append(short, row.Concepts[0])
		}
		var sets core.DiversityPartial
		if err := sets.UnmarshalBinary(call("/internal/query/diversity",
			server.PartialsRequest{Concepts: []string{concept}, Shortlist: short})); err != nil {
			t.Fatal(err)
		}
		return rows, sets
	}

	rows, sets := phases()
	gen := x.Generation()
	if rows.Generation != gen || sets.Generation != gen {
		t.Fatalf("frames at generations %d and %d, explorer at %d", rows.Generation, sets.Generation, gen)
	}
	arts, err := x.SampleArticles(778, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(t, s, http.MethodPost, "/v2/ingest", map[string]any{"articles": arts}); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	rows, sets = phases()
	if gen2 := x.Generation(); gen2 <= gen || rows.Generation != gen2 || sets.Generation != gen2 {
		t.Fatalf("after ingest: frames at generations %d and %d, explorer at %d (was %d)",
			rows.Generation, sets.Generation, gen2, gen)
	}
}
