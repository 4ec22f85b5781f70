package core

import (
	"context"
	"math"
	"testing"
)

// docTimeBounds scans the engine's snapshot for the publication span
// the temporal benchmarks slice windows from.
func docTimeBounds(e *Engine) (int64, int64) {
	st := e.state()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for d := int32(0); d < int32(st.snap.DocBound()); d++ {
		if !st.snap.HasDoc(d) {
			continue
		}
		ts := st.snap.Doc(d).PublishedAt
		if ts < lo {
			lo = ts
		}
		if ts > hi {
			hi = ts
		}
	}
	return lo, hi
}

// BenchmarkTimeFilteredRollUp measures what the segment- and
// block-level time bounds buy: cold roll-up passes (see
// runColdParallel) over the full query pool, unfiltered vs restricted
// to the most recent 10% of the corpus's publication span — the
// analyst's "what happened lately" query. The window variant must
// prune whole blocks before scoring, so its per-query cost is gated in
// scripts/bench_json.sh at no more than half the unfiltered cost.
func BenchmarkTimeFilteredRollUp(b *testing.B) {
	g, _, _, e := world(b)
	qs := benchQueries(g)
	lo, hi := docTimeBounds(e)
	if lo > hi {
		b.Fatal("no documents indexed")
	}
	win := &TimeRange{Min: hi - (hi-lo)/10, Max: math.MaxInt64}
	ctx := context.Background()

	b.Run("unfiltered", func(b *testing.B) {
		runColdParallel(b, qs, func(q Query) {
			if _, err := e.RollUpPage(ctx, q, RollUpOptions{K: 10}); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("window10", func(b *testing.B) {
		runColdParallel(b, qs, func(q Query) {
			if _, err := e.RollUpPage(ctx, q, RollUpOptions{K: 10, Time: win}); err != nil {
				b.Fatal(err)
			}
		})
	})
	// The grouped variant is reported (not gated): the per-period
	// aggregation rides the same scan, so its cost over the filtered
	// scan bounds what group_by adds.
	b.Run("window10-groupby", func(b *testing.B) {
		runColdParallel(b, qs, func(q Query) {
			if _, err := e.RollUpPage(ctx, q, RollUpOptions{K: 10, Time: win, GroupBy: GroupWeek}); err != nil {
				b.Fatal(err)
			}
		})
	})
}
