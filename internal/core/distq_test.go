package core

import (
	"context"
	"encoding"
	"math"
	"reflect"
	"sync"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
)

// overTheWire encodes v as its partials frame and decodes the bytes into
// a fresh value, as the router↔shard hop does.
func overTheWire[T any, P interface {
	*T
	encoding.BinaryUnmarshaler
}](t testing.TB, v encoding.BinaryMarshaler) T {
	t.Helper()
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := P(&out).UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return out
}

// scatterDrillDown is the router's drill-down over in-process shards:
// both phases' partials cross the binary frame, as they do over HTTP.
// It also merges the in-memory partials and fails unless the two pages
// are identical — the frame must change no answer.
func scatterDrillDown(t testing.TB, g *kg.Graph, shards []*Engine, q Query, do DrillDownOptions) DrillDownPage {
	t.Helper()
	ctx := context.Background()
	merge := func(wire bool) DrillDownPage {
		parts := make([]DrillDownPartial, len(shards))
		for s, e := range shards {
			part, err := e.DrillDownPartials(ctx, q, do.Time)
			if err != nil {
				t.Fatal(err)
			}
			if wire {
				part = overTheWire[DrillDownPartial](t, part)
			}
			parts[s] = part
		}
		page, err := MergeDrillDown(g, do, parts, func(short []kg.NodeID) ([]DiversityPartial, error) {
			divs := make([]DiversityPartial, len(shards))
			for s, e := range shards {
				div, err := e.DiversityPartials(ctx, q, short, do.Time)
				if err != nil {
					return nil, err
				}
				if wire {
					div = overTheWire[DiversityPartial](t, div)
				}
				divs[s] = div
			}
			return divs, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return page
	}
	page := merge(true)
	if mem := merge(false); !reflect.DeepEqual(page, mem) {
		t.Fatalf("drill-down %v %+v: merge over decoded frames diverges from the in-memory merge:\n frames: %+v\n memory: %+v",
			q, do, page, mem)
	}
	return page
}

// midSpanWindow is a time window over the middle half of e's
// publication span — it excludes documents on both ends — or nil when e
// holds no documents.
func midSpanWindow(e *Engine) *TimeRange {
	st := e.state()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for d := int32(0); d < int32(st.snap.DocBound()); d++ {
		if !st.snap.HasDoc(d) {
			continue
		}
		t := st.snap.Doc(d).PublishedAt
		lo, hi = min(lo, t), max(hi, t)
	}
	if lo > hi {
		return nil
	}
	quarter := (hi - lo) / 4
	return &TimeRange{Min: lo + quarter, Max: hi - quarter}
}

// TestDistributedMergeMatchesMonolithic is the router's exactness
// contract at the engine level: over two shards grown by a randomized
// ingest schedule, the roll-up merge (mergeShardRollUps over per-shard
// top-(K+offset) pages) and MergeDrillDown must reproduce the
// monolithic pages byte-for-byte across a K/offset/filter grid at every
// generation.
func TestDistributedMergeMatchesMonolithic(t *testing.T) {
	g, meta, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20, MaxSegments: 2}
	const nShards = 2
	shards := make([]*Engine, nShards)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, nShards)
	}
	syncShards(t, shards)
	mono := NewEngine(g, opts)
	mono.IndexCorpus(c)

	ctx := context.Background()
	// The time grid: no filter, plus a mid-span window.
	timeWindows := func() []*TimeRange {
		if w := midSpanWindow(mono); w != nil {
			return []*TimeRange{nil, w}
		}
		return []*TimeRange{nil}
	}

	check := func(stage string) {
		t.Helper()
		var queries []Query
		for _, topic := range meta.Topics {
			queries = append(queries, Query{topic.Concept}, Query{topic.Concept, topic.GroupConcept})
		}
		sources := []corpus.Source{corpus.Sources[0], corpus.Sources[2]}
		windows := timeWindows()
		for _, q := range queries {
			for _, k := range []int{1, 3, 8} {
				// Offset 130 lies past the 128-entry drill-down shortlist
				// window: an empty page whose Total is the window.
				for _, offset := range []int{0, 2, 7, 130} {
					for _, minScore := range []float64{0, 0.05} {
						// Alternate the time window across the grid so
						// the filtered scatter path is covered without
						// doubling the test's runtime.
						tr := windows[(k+offset)%len(windows)]
						ro := RollUpOptions{K: k, Offset: offset, MinScore: minScore, Time: tr}
						if k == 8 && offset == 0 {
							ro.Sources = sources
						}
						var got RollUpPage
						lists := make([][]DocResult, len(shards))
						for s, e := range shards {
							shardOpts := ro
							shardOpts.K, shardOpts.Offset = k+offset, 0
							page, err := e.RollUpPage(ctx, q, shardOpts)
							if err != nil {
								t.Fatal(err)
							}
							lists[s] = page.Results
							got.Total += page.Total
							got.Generation = page.Generation
						}
						got.Results = mergeShardRollUps(lists, k, offset)
						want, err := mono.RollUpPage(ctx, q, ro)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: merged roll-up diverges for %v k=%d offset=%d min=%g:\n got:  %+v\n want: %+v",
								stage, q, k, offset, minScore, got, want)
						}

						do := DrillDownOptions{K: k, Offset: offset, MinScore: minScore, Time: tr}
						if k == 8 && offset == 2 {
							do.NoSpecificity = true
						}
						if k == 3 && offset == 0 {
							do.NoDiversity = true
						}
						gotDD := scatterDrillDown(t, g, shards, q, do)
						wantDD, err := mono.DrillDownPage(ctx, q, do)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotDD, wantDD) {
							t.Fatalf("%s: merged drill-down diverges for %v k=%d offset=%d min=%g:\n got:  %+v\n want: %+v",
								stage, q, k, offset, minScore, gotDD, wantDD)
						}
						// Past the window the cursor ends: nothing returned,
						// and offset+k reaches no counted entry.
						if offset == 130 && (len(gotDD.Results) > 0 || gotDD.Total > 128) {
							t.Fatalf("%s: drill-down %v past the shortlist window: %d results, Total %d",
								stage, q, len(gotDD.Results), gotDD.Total)
						}
					}
				}
			}
		}
	}
	check("seed")

	targets := []int{1, 0, 0, 1}
	for i, target := range targets {
		batch := ingestBatch(t, 9500+uint64(i), 4+i)
		if _, err := shards[target].Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mono.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		syncShards(t, shards)
		check("batch")
	}
	for _, e := range shards {
		e.WaitMerges()
	}
	mono.WaitMerges()
	check("after merges")
}

// TestMergeGenerationSkew pins the typed error a drill-down merge
// reports over partials from different generations.
func TestMergeGenerationSkew(t *testing.T) {
	_, err := MergeDrillDown(nil, DrillDownOptions{K: 5},
		[]DrillDownPartial{{Generation: 1}, {Generation: 2}}, nil)
	if err != ErrGenerationSkew {
		t.Fatalf("drill-down skew error = %v", err)
	}
}

// TestDistributedDrillDownDefaultScale is the distributed drill-down
// equivalence at the scale where the MaxConceptsPerDoc cap drops
// candidates (the tiny world never does): two shards against one
// monolithic engine, every topic's concept and group concept alone,
// k ∈ {5, 10, 64}, with and without a time window. Diversity over
// D(Q) instead of D(Q ∪ {c}) on the shard side made 3 of the 48
// k ∈ {5, 10} pages differ (2 of the 24 without a window).
func TestDistributedDrillDownDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale world")
	}
	g, meta := kggen.MustGenerate(kggen.Default())
	c := corpus.MustGenerate(g, meta, corpus.Default())
	opts := Options{Seed: 11, Samples: 20}
	shards := make([]*Engine, 2)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, len(shards))
	}
	mono := NewEngine(g, opts)
	mono.IndexCorpus(c)

	ctx := context.Background()
	diffs, pages := 0, 0
	for _, tr := range []*TimeRange{nil, midSpanWindow(mono)} {
		for _, topic := range meta.Topics {
			for _, q := range []Query{{topic.Concept}, {topic.GroupConcept}} {
				for _, k := range []int{5, 10, 64} {
					do := DrillDownOptions{K: k, Time: tr}
					want, err := mono.DrillDownPage(ctx, q, do)
					if err != nil {
						t.Fatal(err)
					}
					pages++
					if got := scatterDrillDown(t, g, shards, q, do); !reflect.DeepEqual(got, want) {
						diffs++
						t.Errorf("drill-down %v k=%d window=%v diverges:\n got:  %+v\n want: %+v", q, k, tr, got, want)
					}
				}
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d distributed drill-down pages differ from the monolith", diffs, pages)
	}
}

// TestMergeDrillDownConcurrent: merges running at once each take their
// own pooled scratch, so every one of them equals the serial merge of
// the same partials.
func TestMergeDrillDownConcurrent(t *testing.T) {
	g, meta, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20}
	shards := make([]*Engine, 2)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, len(shards))
	}
	ctx := context.Background()
	type input struct {
		do    DrillDownOptions
		parts []DrillDownPartial
		fetch func([]kg.NodeID) ([]DiversityPartial, error)
		want  DrillDownPage
	}
	var inputs []input
	for i, topic := range meta.Topics {
		q := Query{topic.Concept}
		in := input{do: DrillDownOptions{K: 3 + i}}
		for _, e := range shards {
			part, err := e.DrillDownPartials(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			in.parts = append(in.parts, part)
		}
		var divs []DiversityPartial
		in.fetch = func(short []kg.NodeID) ([]DiversityPartial, error) { return divs, nil }
		want, err := MergeDrillDown(g, in.do, in.parts, func(short []kg.NodeID) ([]DiversityPartial, error) {
			for _, e := range shards {
				div, err := e.DiversityPartials(ctx, q, short, nil)
				if err != nil {
					return nil, err
				}
				divs = append(divs, div)
			}
			return divs, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		in.want = want
		inputs = append(inputs, in)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := inputs[(w+i)%len(inputs)]
				got, err := MergeDrillDown(g, in.do, in.parts, in.fetch)
				if err != nil || !reflect.DeepEqual(got, in.want) {
					t.Errorf("concurrent merge %d diverges (err %v):\n got:  %+v\n want: %+v", i, err, got, in.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkMergeDrillDown times the router's drill-down merge alone —
// row replay, shortlist, cross-shard diversity union, paging — over
// fixed two-shard partials of the tiny world. The same partials merge
// against the tiny graph and the default-scale one: the pooled scratch
// is sized by the graph once, so B/op must not depend on which.
func BenchmarkMergeDrillDown(b *testing.B) {
	g, meta, c, _ := world(b)
	opts := Options{Seed: 11, Samples: 20}
	shards := make([]*Engine, 2)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, len(shards))
	}
	ctx := context.Background()
	q := Query{meta.Topics[0].Concept}
	parts := make([]DrillDownPartial, len(shards))
	for s, e := range shards {
		part, err := e.DrillDownPartials(ctx, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		parts[s] = part
	}
	big, _ := kggen.MustGenerate(kggen.Default())
	for _, graph := range []struct {
		name string
		g    *kg.Graph
	}{{"tiny", g}, {"default", big}} {
		b.Run("graph="+graph.name, func(b *testing.B) {
			// The shortlist depends on the graph's specificity table: fetch
			// its diversity sets once, then serve them from memory.
			var divs []DiversityPartial
			fetch := func(short []kg.NodeID) ([]DiversityPartial, error) {
				if divs == nil {
					for _, e := range shards {
						div, err := e.DiversityPartials(ctx, q, short, nil)
						if err != nil {
							return nil, err
						}
						divs = append(divs, div)
					}
				}
				return divs, nil
			}
			do := DrillDownOptions{K: 10}
			if _, err := MergeDrillDown(graph.g, do, parts, fetch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MergeDrillDown(graph.g, do, parts, fetch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
