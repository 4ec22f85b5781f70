package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kggen"
	"ncexplorer/internal/xrand"
)

// TestTimeFilteredMatchesPostFiltered is the temporal equivalence bar
// (ISSUE 10): every time-range-filtered page — at every page size,
// offset, source filter, score floor, window shape, and group-by — must
// be byte-identical to post-filtering the *unfiltered* exhaustive
// scorer's full listing, across randomized build→ingest→merge schedules
// and after a save/open round trip. The post-filter oracle is computed
// in this file with its own calendar arithmetic, so neither the pruned
// scan nor the mirrored exhaustive filter can mask a shared bug.
// Runs under -race in CI.
func TestTimeFilteredMatchesPostFiltered(t *testing.T) {
	for _, seed := range []uint64{5, 23, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := xrand.New(seed)
			kcfg := kggen.Tiny()
			kcfg.Seed = seed
			kcfg.ExtraConcepts = 40 + r.Intn(60)
			kcfg.ExtraInstances = 200 + r.Intn(300)
			kcfg.AvgDegree = float64(4 + r.Intn(5))
			g, meta := kggen.MustGenerate(kcfg)
			ccfg := corpus.Tiny()
			ccfg.Seed = seed*2 + 1
			ccfg.Docs = map[corpus.Source]int{
				corpus.SeekingAlpha: 15 + r.Intn(15),
				corpus.NYT:          8 + r.Intn(10),
				corpus.Reuters:      30 + r.Intn(30),
			}
			c := corpus.MustGenerate(g, meta, ccfg)
			// MaxSegments 2 forces background merges mid-schedule, so the
			// sweep sees multi-segment and freshly-merged block bounds.
			e := NewEngine(g, Options{Seed: seed, Samples: 10, MaxSegments: 2})
			e.IndexCorpus(c)
			compareTimeFiltered(t, e, meta)
			for b := 0; b < 3; b++ {
				n := 4 + r.Intn(8)
				batch, err := corpus.GenerateBatch(g, meta, ccfg, 9300+seed*10+uint64(b), n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Ingest(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				e.WaitMerges()
				compareTimeFiltered(t, e, meta)
			}

			// The filter must survive persistence: segment time bounds are
			// recomputed by the decoder, so a reopened engine prunes from
			// derived — not trusted — metadata.
			dir := t.TempDir()
			if err := e.SaveSnapshot(dir, nil); err != nil {
				t.Fatal(err)
			}
			loaded := NewEngine(g, Options{Seed: seed, Samples: 10, MaxSegments: 2})
			if err := loaded.OpenSnapshot(dir, nil); err != nil {
				t.Fatal(err)
			}
			compareTimeFiltered(t, loaded, meta)
		})
	}
}

// compareTimeFiltered sweeps the temporal option grid at the engine's
// current generation against the post-filter oracle.
func compareTimeFiltered(t *testing.T, e *Engine, meta *kggen.Meta) {
	t.Helper()
	ctx := context.Background()
	st := e.state()

	var queries []Query
	topics := meta.Topics
	if len(topics) > 3 {
		topics = topics[:3]
	}
	for _, topic := range topics {
		queries = append(queries,
			Query{topic.Concept},
			Query{topic.Concept, topic.GroupConcept},
		)
	}

	// Window shapes from the corpus's actual publication span: open
	// starts and ends, a mid-span half, a narrow slice, a single-instant
	// inclusive window on a real timestamp, and a window past every
	// document (the whole-snapshot pruning path).
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	var anyTime int64
	for d := int32(0); d < int32(st.snap.DocBound()); d++ {
		if !st.snap.HasDoc(d) {
			continue
		}
		ts := st.snap.Doc(d).PublishedAt
		anyTime = ts
		if ts < lo {
			lo = ts
		}
		if ts > hi {
			hi = ts
		}
	}
	if lo > hi {
		t.Fatal("no documents indexed")
	}
	span := hi - lo
	windows := []*TimeRange{
		{Min: math.MinInt64, Max: lo + span/2},
		{Min: lo + span/2, Max: math.MaxInt64},
		{Min: lo + span/4, Max: hi - span/4},
		{Min: hi - span/10, Max: hi},
		{Min: anyTime, Max: anyTime},
		{Min: hi + 1, Max: math.MaxInt64},
	}
	groups := []GroupBy{GroupNone, GroupDay, GroupWeek, GroupMonth}

	sourceSets := [][]corpus.Source{nil, {corpus.Reuters}}
	cell := 0
	for _, q := range queries {
		for _, k := range []int{1, 3, 10} {
			for _, offset := range []int{0, 2, 10000} {
				for _, sources := range sourceSets {
					for _, minScore := range []float64{0, 0.05} {
						// Rotate window and group-by through the grid:
						// every combination appears across the sweep
						// without multiplying its runtime by 24.
						tr := windows[cell%len(windows)]
						gb := groups[cell/len(windows)%len(groups)]
						cell++
						opts := RollUpOptions{
							K: k, Offset: offset, Sources: sources,
							MinScore: minScore, Time: tr, GroupBy: gb,
						}
						want, err := postFilteredPage(ctx, e, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := e.RollUpPage(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("time-filtered page diverges from post-filter oracle (gen %d, q=%v, opts=%+v):\n got: %+v\nwant: %+v",
								e.Generation(), q, opts, got, want)
						}
						// Triangulate: the mirrored exhaustive filter must
						// agree with both.
						exh, err := e.rollUpPageExhaustive(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(exh, want) {
							t.Fatalf("exhaustive time filter diverges from post-filter oracle (gen %d, q=%v, opts=%+v):\n got: %+v\nwant: %+v",
								e.Generation(), q, opts, exh, want)
						}
					}
				}
			}
		}
	}

	// Windows whose bounds sit exactly on a pruning block's time bounds:
	// a block whose newest document is published at the window's start,
	// or whose oldest at its end, overlaps the window (bounds are
	// inclusive), so skipping it would lose that document.
	for _, topic := range topics {
		c := topic.Concept
		p := &st.plans[c]
		st.ensureCeilings(c, p)
		for _, b := range p.blocks {
			for _, tr := range []*TimeRange{{Min: b.maxT, Max: math.MaxInt64}, {Min: math.MinInt64, Max: b.minT}} {
				opts := RollUpOptions{K: 3, Time: tr}
				want, err := postFilteredPage(ctx, e, Query{c}, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.RollUpPage(ctx, Query{c}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("block-edge window diverges from post-filter oracle (gen %d, c=%d, window %+v):\n got: %+v\nwant: %+v",
						e.Generation(), c, *tr, got, want)
				}
			}
		}
	}
}

// postFilteredPage is the oracle: run the exhaustive scorer with no
// time filter and no grouping over the full listing (K covers every
// document), then drop out-of-window results, bucket the survivors
// with reference calendar arithmetic, and page what remains. Any
// divergence from the engine's filtered page means the pruning or the
// streamed aggregation changed semantics, not just performance.
func postFilteredPage(ctx context.Context, e *Engine, q Query, opts RollUpOptions) (RollUpPage, error) {
	st := e.state()
	full := opts
	full.Time = nil
	full.GroupBy = GroupNone
	full.K = st.snap.DocBound() + 16
	full.Offset = 0
	listing, err := e.rollUpPageExhaustive(ctx, q, full)
	if err != nil {
		return RollUpPage{}, err
	}
	out := RollUpPage{Generation: listing.Generation}
	var kept []DocResult
	counts := make(map[int64]int)
	for _, res := range listing.Results {
		ts := st.snap.Doc(int32(res.Doc)).PublishedAt
		if opts.Time != nil && (ts < opts.Time.Min || ts > opts.Time.Max) {
			continue
		}
		kept = append(kept, res)
		if opts.GroupBy != GroupNone {
			counts[refPeriodStart(opts.GroupBy, ts)]++
		}
	}
	out.Total = len(kept)
	if opts.GroupBy != GroupNone && len(counts) > 0 {
		starts := make([]int64, 0, len(counts))
		for s := range counts {
			starts = append(starts, s)
		}
		for i := 1; i < len(starts); i++ {
			for j := i; j > 0 && starts[j] < starts[j-1]; j-- {
				starts[j], starts[j-1] = starts[j-1], starts[j]
			}
		}
		for _, s := range starts {
			out.Periods = append(out.Periods, PeriodBucket{Start: s, Count: counts[s]})
		}
	}
	if opts.Offset >= len(kept) {
		return out, nil
	}
	kept = kept[opts.Offset:]
	if len(kept) > opts.K {
		kept = kept[:opts.K]
	}
	out.Results = kept
	return out, nil
}

// refPeriodStart truncates a timestamp to its calendar period with
// deliberately different arithmetic from the production PeriodStart
// (library date construction and a weekday walk-back loop instead of
// epoch math), so the two implementations check each other.
func refPeriodStart(gb GroupBy, ts int64) int64 {
	tm := time.Unix(ts, 0).UTC()
	day := time.Date(tm.Year(), tm.Month(), tm.Day(), 0, 0, 0, 0, time.UTC)
	switch gb {
	case GroupDay:
		return day.Unix()
	case GroupWeek:
		for day.Weekday() != time.Monday {
			day = day.AddDate(0, 0, -1)
		}
		return day.Unix()
	case GroupMonth:
		return time.Date(tm.Year(), tm.Month(), 1, 0, 0, 0, 0, time.UTC).Unix()
	}
	return 0
}
