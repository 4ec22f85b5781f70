package core

import (
	"context"
	"math"
	"testing"
	"time"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
)

// pageQuery returns a query with a healthy number of matches.
func pageQuery(t *testing.T) Query {
	_, meta, _, e := world(t)
	for _, topic := range meta.Topics {
		q := Query{topic.Concept}
		if len(e.MatchedDocs(q)) >= 8 {
			return q
		}
	}
	t.Skip("no topic with enough matches")
	return nil
}

// TestRollUpPageMatchesRollUp pins the compatibility contract: with
// offset 0 and no filters the paged API returns exactly RollUp's
// results, and Total counts every match.
func TestRollUpPageMatchesRollUp(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	legacy := e.RollUp(q, 5)
	page, err := e.RollUpPage(context.Background(), q, RollUpOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != len(legacy) {
		t.Fatalf("paged %d results, legacy %d", len(page.Results), len(legacy))
	}
	for i := range legacy {
		if page.Results[i].Doc != legacy[i].Doc || page.Results[i].Score != legacy[i].Score {
			t.Fatalf("rank %d differs: paged %+v legacy %+v", i, page.Results[i], legacy[i])
		}
	}
	if want := len(e.MatchedDocs(q)); page.Total != want {
		t.Fatalf("total = %d; want %d matches", page.Total, want)
	}
}

// TestRollUpPageOffsets verifies stitched pages equal one big page.
func TestRollUpPageOffsets(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	ctx := context.Background()
	full, err := e.RollUpPage(ctx, q, RollUpOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) < 4 {
		t.Skipf("only %d results", len(full.Results))
	}
	var stitched []DocResult
	for off := 0; off < len(full.Results); off += 2 {
		page, err := e.RollUpPage(ctx, q, RollUpOptions{K: 2, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		stitched = append(stitched, page.Results...)
	}
	stitched = stitched[:len(full.Results)]
	for i := range full.Results {
		if stitched[i].Doc != full.Results[i].Doc {
			t.Fatalf("stitched rank %d = doc %d; want %d", i, stitched[i].Doc, full.Results[i].Doc)
		}
	}
	// Past-the-end offset: empty page, total preserved.
	past, err := e.RollUpPage(ctx, q, RollUpOptions{K: 3, Offset: 1 << 20})
	if err != nil || len(past.Results) != 0 || past.Total != full.Total {
		t.Fatalf("past-the-end page = %+v err %v", past, err)
	}
	// A hostile offset must not translate into a huge (or, after
	// K+Offset overflows, negative) collector allocation.
	huge, err := e.RollUpPage(ctx, q, RollUpOptions{K: 3, Offset: math.MaxInt})
	if err != nil || len(huge.Results) != 0 || huge.Total != full.Total {
		t.Fatalf("overflowing offset page = %+v err %v", huge, err)
	}
	if _, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 3, Offset: math.MaxInt}); err != nil {
		t.Fatalf("overflowing drill-down offset: %v", err)
	}
	if _, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 3, Offset: 2_000_000_000}); err != nil {
		t.Fatalf("huge drill-down offset: %v", err)
	}
}

// TestRollUpPageFilters verifies the source and score filters.
func TestRollUpPageFilters(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	ctx := context.Background()
	full, _ := e.RollUpPage(ctx, q, RollUpOptions{K: 1 << 20})

	bySource := 0
	for _, src := range corpus.Sources {
		page, err := e.RollUpPage(ctx, q, RollUpOptions{K: 1 << 20, Sources: []corpus.Source{src}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Results {
			if e.Doc(r.Doc).Source != src {
				t.Fatalf("source filter %v leaked doc from %v", src, e.Doc(r.Doc).Source)
			}
		}
		bySource += page.Total
	}
	if bySource != full.Total {
		t.Fatalf("per-source totals sum to %d; want %d", bySource, full.Total)
	}

	if len(full.Results) >= 2 {
		floor := full.Results[1].Score
		page, err := e.RollUpPage(ctx, q, RollUpOptions{K: 1 << 20, MinScore: floor})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Results {
			if r.Score < floor {
				t.Fatalf("min-score %g leaked %g", floor, r.Score)
			}
		}
		if page.Total != len(page.Results) || page.Total >= full.Total {
			t.Fatalf("min-score total = %d (results %d, unfiltered %d)",
				page.Total, len(page.Results), full.Total)
		}
	}
}

// TestDrillDownPageMatchesDrillDown pins the paged/legacy equivalence
// for drill-down, including the ablation toggles.
func TestDrillDownPageMatchesDrillDown(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	ctx := context.Background()
	legacy := e.DrillDown(q, 5)
	page, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != len(legacy) {
		t.Fatalf("paged %d, legacy %d", len(page.Results), len(legacy))
	}
	for i := range legacy {
		if page.Results[i] != legacy[i] {
			t.Fatalf("rank %d differs: %+v vs %+v", i, page.Results[i], legacy[i])
		}
	}
	if page.Total <= 0 {
		t.Fatalf("total = %d", page.Total)
	}
	// Offset pages continue the same ranking.
	if len(legacy) >= 4 {
		tail, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 2, Offset: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(tail.Results) == 0 || tail.Results[0] != legacy[2] {
			t.Fatalf("offset page head %+v; want %+v", tail.Results, legacy[2])
		}
	}
	// Ablation wrappers still agree with the paged toggles.
	abl := e.DrillDownComponents(q, 5, true, false)
	pageAbl, _ := e.DrillDownPage(ctx, q, DrillDownOptions{K: 5, NoDiversity: true})
	for i := range abl {
		if pageAbl.Results[i] != abl[i] {
			t.Fatalf("ablation rank %d differs", i)
		}
	}
}

// TestDrillDownMinScoreInclusive: the drill-down floor keeps a
// subtopic scoring exactly MinScore. Scores are exact shortlist values,
// so a floor set to a returned score is reachable.
func TestDrillDownMinScoreInclusive(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	ctx := context.Background()
	full, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) < 3 {
		t.Skip("too few subtopics")
	}
	floor := full.Results[2].Score
	want := 0
	for _, s := range full.Results {
		if s.Score >= floor {
			want++
		}
	}
	page, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 128, MinScore: floor})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != want || len(page.Results) != want {
		t.Fatalf("floor %g: total %d, %d results; want %d of each", floor, page.Total, len(page.Results), want)
	}
	for i := range page.Results {
		if page.Results[i] != full.Results[i] {
			t.Fatalf("rank %d differs under the floor: %+v vs %+v", i, page.Results[i], full.Results[i])
		}
	}
}

// TestQueryCancellation verifies both paged operations return the ctx
// error without results once the context is cancelled.
func TestQueryCancellation(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RollUpPage(ctx, q, RollUpOptions{K: 5}); err != context.Canceled {
		t.Fatalf("rollup err = %v; want context.Canceled", err)
	}
	if _, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 5}); err != context.Canceled {
		t.Fatalf("drilldown err = %v; want context.Canceled", err)
	}
	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.RollUpPage(dctx, q, RollUpOptions{K: 5}); err != context.DeadlineExceeded {
		t.Fatalf("deadline err = %v", err)
	}
}

// TestDrillDownPaginationConsistency pins the cursor contract: the
// scored window depends on K alone (never Offset), so stitching
// fixed-K pages reproduces the full ranking exactly, Total reports
// the rankable count, and offsets past the window return empty pages.
func TestDrillDownPaginationConsistency(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	ctx := context.Background()
	full, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 3, Offset: 0})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < len(full.Results) {
		t.Fatalf("total %d < returned %d", full.Total, len(full.Results))
	}
	// Walk the whole rankable listing in K=3 pages; the stitched walk
	// must be duplicate-free and Total long.
	seen := make(map[kg.NodeID]bool)
	count := 0
	for off := 0; off < full.Total; off += 3 {
		page, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 3, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != full.Total {
			t.Fatalf("total changed across pages: %d vs %d", page.Total, full.Total)
		}
		for _, s := range page.Results {
			if seen[s.Concept] {
				t.Fatalf("concept %v appears on two pages", s.Concept)
			}
			seen[s.Concept] = true
			count++
		}
	}
	if count != full.Total {
		t.Fatalf("stitched %d suggestions; total says %d", count, full.Total)
	}
	// Past the window: empty page, stable total.
	past, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 3, Offset: full.Total})
	if err != nil || len(past.Results) != 0 || past.Total != full.Total {
		t.Fatalf("past-window page = %+v err %v", past, err)
	}
}
