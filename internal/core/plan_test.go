package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
	"ncexplorer/internal/snapshot"
	"ncexplorer/internal/topk"
	"ncexplorer/internal/xrand"
)

// TestPrunedMatchesExhaustive is the equivalence bar of the pruned
// planner: over randomized graphs, corpora, and build→ingest→merge
// schedules, every RollUpPage — at every generation, page size,
// offset, source filter, and score floor, including a floor equal to
// an exact result score — must reproduce the exhaustive scorer's page
// byte-for-byte. Runs under -race in CI.
func TestPrunedMatchesExhaustive(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
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
			// MaxSegments 2 forces background merges during the schedule.
			e := NewEngine(g, Options{Seed: seed, Samples: 10, MaxSegments: 2})
			e.IndexCorpus(c)
			comparePrunedExhaustive(t, e, g, meta)
			for b := 0; b < 3; b++ {
				n := 4 + r.Intn(8)
				batch, err := corpus.GenerateBatch(g, meta, ccfg, 9000+seed*10+uint64(b), n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Ingest(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				e.WaitMerges()
				comparePrunedExhaustive(t, e, g, meta)
			}
		})
	}
}

// comparePrunedExhaustive sweeps the option grid at the engine's
// current generation.
func comparePrunedExhaustive(t *testing.T, e *Engine, g *kg.Graph, meta *kggen.Meta) {
	t.Helper()
	ctx := context.Background()
	var queries []Query
	topics := meta.Topics
	if len(topics) > 4 {
		topics = topics[:4]
	}
	for _, topic := range topics {
		queries = append(queries,
			Query{topic.Concept},
			Query{topic.Concept, topic.GroupConcept},
		)
	}
	// A node with no plan (typically an instance): both paths must agree
	// on the empty page.
	queries = append(queries, Query{kg.NodeID(g.NumNodes() - 1)})

	sourceSets := [][]corpus.Source{
		nil,
		{corpus.Reuters},
		{corpus.SeekingAlpha, corpus.NYT},
	}
	for _, q := range queries {
		for _, k := range []int{1, 3, 10} {
			for _, offset := range []int{0, 2, 10000} {
				for _, sources := range sourceSets {
					opts := RollUpOptions{K: k, Offset: offset, Sources: sources}
					want, err := e.rollUpPageExhaustive(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.RollUpPage(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("pruned page diverges (gen %d, q=%v, opts=%+v):\n got: %+v\nwant: %+v",
							e.Generation(), q, opts, got, want)
					}
					// A floor equal to an exact result score: equality must
					// pass on both paths (and tighten pruning on the new one).
					if len(want.Results) > 0 {
						opts.MinScore = want.Results[len(want.Results)-1].Score
						want2, err := e.rollUpPageExhaustive(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						got2, err := e.RollUpPage(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got2, want2) {
							t.Fatalf("pruned page diverges at exact MinScore (gen %d, q=%v, opts=%+v):\n got: %+v\nwant: %+v",
								e.Generation(), q, opts, got2, want2)
						}
					}
				}
			}
		}
	}
}

// TestCeilingsDominateScores pins the soundness invariant the skip rule
// rests on: within every plan block, every document score is bounded by
// the block ceiling, and ceilOrder is a (ceil desc, position asc)
// permutation of the blocks.
func TestCeilingsDominateScores(t *testing.T) {
	_, _, _, e := world(t)
	st := e.state()
	if st.planned == 0 {
		t.Fatal("no plans built")
	}
	checked := 0
	for c := range st.plans {
		p := &st.plans[c]
		if len(p.docs) == 0 {
			continue
		}
		st.ensureCeilings(kg.NodeID(c), p) // ceilings materialise on first query use
		if len(p.blocks) == 0 {
			t.Fatalf("concept %d: no blocks materialised for %d docs", c, len(p.docs))
		}
		if len(p.ceilOrder) != len(p.blocks) {
			t.Fatalf("concept %d: ceilOrder len %d vs %d blocks", c, len(p.ceilOrder), len(p.blocks))
		}
		seen := make([]bool, len(p.blocks))
		for i, bi := range p.ceilOrder {
			if seen[bi] {
				t.Fatalf("concept %d: block %d repeated in ceilOrder", c, bi)
			}
			seen[bi] = true
			if i > 0 {
				prev, cur := p.blocks[p.ceilOrder[i-1]], p.blocks[bi]
				if prev.ceil < cur.ceil || (prev.ceil == cur.ceil && prev.lo > cur.lo) {
					t.Fatalf("concept %d: ceilOrder not (ceil desc, lo asc) at %d", c, i)
				}
			}
		}
		for _, b := range p.blocks {
			block := p.docs[b.lo] >> snapshot.BlockShift
			for j := b.lo; j < b.hi; j++ {
				if p.docs[j]>>snapshot.BlockShift != block {
					t.Fatalf("concept %d: block [%d,%d) spans ID windows", c, b.lo, b.hi)
				}
				if p.scores[j] > b.ceil {
					t.Fatalf("concept %d doc %d: score %g exceeds block ceiling %g",
						c, p.docs[j], p.scores[j], b.ceil)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no (concept, doc) pairs checked")
	}
}

// fakeSources is a docView for synthetic plans. All docs report time 0,
// so the hand-built boundary cases below exercise the score rules
// without a time filter in play.
type fakeSources map[int32]corpus.Source

func (f fakeSources) docSource(d int32) corpus.Source { return f[d] }
func (f fakeSources) docTime(d int32) int64           { return 0 }

// TestScanPlanPrunedBoundaries pins the strict-inequality skip rules on
// hand-built plans where getting a boundary wrong changes the output.
func TestScanPlanPrunedBoundaries(t *testing.T) {
	ctx := context.Background()
	scan := func(p *conceptPlan, view docView, allowed []corpus.Source, minScore float64, k int) (int, []topk.KeyedItem[int32]) {
		t.Helper()
		coll := topk.NewKeyed[int32](k)
		total, err := scanPlanPruned(ctx, p, view, allowed, minScore, nil, nil, coll)
		if err != nil {
			t.Fatal(err)
		}
		return total, coll.AppendSorted(nil)
	}

	// A block whose ceiling EQUALS the full collector's threshold holds a
	// doc with the threshold score and a lower ID: it must be scored, and
	// the ID tie-break must evict the retained higher-ID doc. Blocks:
	// docs[1:3] = {128: 10, 129: 5} (ceil 10, visited first) then
	// docs[0:1] = {0: 5} (ceil 5 == threshold after the first block).
	equality := &conceptPlan{
		docs:   []int32{0, 128, 129},
		scores: []float64{5, 10, 5},
		pivots: make([]kg.NodeID, 3),
		blocks: []planBlock{
			{lo: 0, hi: 1, ceil: 5},
			{lo: 1, hi: 3, ceil: 10},
		},
		ceilOrder: []int32{1, 0},
	}
	total, items := scan(equality, fakeSources{}, nil, 0, 2)
	if total != 3 {
		t.Fatalf("equality case Total = %d, want 3", total)
	}
	if len(items) != 2 || items[0].Value != 128 || items[1].Value != 0 {
		t.Fatalf("ceiling == threshold was skipped: retained %+v, want docs 128 then 0", items)
	}

	// A block STRICTLY below the threshold cannot change the retained
	// set, but its documents still match: they count toward Total
	// (respecting the source filter) without being scored.
	below := &conceptPlan{
		docs:   []int32{0, 1, 64, 65},
		scores: []float64{10, 9, 3, 2},
		pivots: make([]kg.NodeID, 4),
		blocks: []planBlock{
			{lo: 0, hi: 2, ceil: 10},
			{lo: 2, hi: 4, ceil: 3},
		},
		ceilOrder: []int32{0, 1},
	}
	view := fakeSources{0: corpus.Reuters, 1: corpus.NYT, 64: corpus.Reuters, 65: corpus.NYT}
	total, items = scan(below, view, nil, 0, 2)
	if total != 4 || len(items) != 2 || items[0].Value != 0 || items[1].Value != 1 {
		t.Fatalf("strict-below case: Total=%d items=%+v, want Total 4, docs 0,1", total, items)
	}
	total, _ = scan(below, view, []corpus.Source{corpus.Reuters}, 0, 1)
	if total != 2 {
		t.Fatalf("filtered Total = %d, want 2 (one per skipped/scored Reuters doc)", total)
	}

	// MinScore boundaries: a block with ceil == minScore holds passing
	// docs (equality passes the floor) and must be scored; a block with
	// ceil strictly below contributes nothing, not even to Total.
	floor := &conceptPlan{
		docs:   []int32{0, 64, 128},
		scores: []float64{10, 5, 4},
		pivots: make([]kg.NodeID, 3),
		blocks: []planBlock{
			{lo: 0, hi: 1, ceil: 10},
			{lo: 1, hi: 2, ceil: 5},
			{lo: 2, hi: 3, ceil: 4},
		},
		ceilOrder: []int32{0, 1, 2},
	}
	total, items = scan(floor, fakeSources{}, nil, 5, 3)
	if total != 2 || len(items) != 2 || items[1].Value != 64 {
		t.Fatalf("minScore equality case: Total=%d items=%+v, want Total 2 with doc 64 kept", total, items)
	}

	// With a floor set, a block below the collector threshold but at or
	// above the floor still needs per-document scoring: Total depends on
	// which of its docs clear the floor.
	mixed := &conceptPlan{
		docs:   []int32{0, 64, 65},
		scores: []float64{10, 5, 3},
		pivots: make([]kg.NodeID, 3),
		blocks: []planBlock{
			{lo: 0, hi: 1, ceil: 10},
			{lo: 1, hi: 3, ceil: 5},
		},
		ceilOrder: []int32{0, 1},
	}
	total, items = scan(mixed, fakeSources{}, nil, 4, 1)
	if total != 2 || len(items) != 1 || items[0].Value != 0 {
		t.Fatalf("floor+threshold case: Total=%d items=%+v, want Total 2, doc 0", total, items)
	}
}

// TestWarmRollUpPageIntoNoAlloc pins the zero-alloc warm path outside
// the benchmark suite, for both the pruned single-concept scan and the
// multi-concept leapfrog.
func TestWarmRollUpPageIntoNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so the warm path allocates; plain go test asserts 0")
	}
	_, meta, _, e := world(t)
	topic := meta.Topics[0]
	ctx := context.Background()
	for _, q := range []Query{
		{topic.Concept},
		{topic.Concept, topic.GroupConcept},
	} {
		var page RollUpPage
		opts := RollUpOptions{K: 8}
		if err := e.RollUpPageInto(ctx, q, opts, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Results) == 0 {
			t.Fatalf("query %v returned no results", q)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := e.RollUpPageInto(ctx, q, opts, &page); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm RollUpPageInto(%v) allocates %.1f/op, want 0", q, allocs)
		}
	}
}

// TestDrillDownPruningMatchesFullScore: with K below the shortlist
// window the collector keeps only the top K; with K equal to the window
// (same shortlist, same candidate set) it keeps every scored entry. The
// smaller page must be exactly the prefix of the full ranking, for
// every ablation toggle.
func TestDrillDownPruningMatchesFullScore(t *testing.T) {
	_, meta, _, e := world(t)
	ctx := context.Background()
	for _, topic := range meta.Topics {
		q := Query{topic.Concept, topic.GroupConcept}
		for _, toggles := range []DrillDownOptions{
			{},
			{NoSpecificity: true},
			{NoDiversity: true},
			{NoSpecificity: true, NoDiversity: true},
		} {
			fullOpts := toggles
			fullOpts.K = 128 // == shortlist window: prune phase is empty
			full, err := e.DrillDownPage(ctx, q, fullOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 10} {
				opts := toggles
				opts.K = k
				got, err := e.DrillDownPage(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := full.Results
				if len(want) > k {
					want = want[:k]
				}
				if !reflect.DeepEqual(got.Results, want) {
					t.Fatalf("pruned drill-down diverges (topic %q, k=%d, toggles %+v):\n got: %+v\nwant: %+v",
						topic.Name, k, toggles, got.Results, want)
				}
				if got.Total != full.Total {
					t.Fatalf("Total diverges: %d vs %d", got.Total, full.Total)
				}
			}
		}
	}
}

// TestSelectTopCand checks the quickselect against a full sort over
// adversarially tie-heavy inputs: the selected prefix, once sorted,
// must equal the prefix of the fully sorted list for every k.
func TestSelectTopCand(t *testing.T) {
	r := xrand.New(42)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		k := 1 + r.Intn(n)
		s := make([]candScore, n)
		for _, p := range r.Perm(n) {
			// Few distinct scores force heavy tie-breaking on concept ID.
			s[p] = candScore{c: kg.NodeID(len(s) - p), s: float64(r.Intn(6))}
		}
		want := append([]candScore(nil), s...)
		slices.SortFunc(want, cmpCandScore)
		selectTopCand(s, k)
		got := s[:k:k]
		slices.SortFunc(got, cmpCandScore)
		if !reflect.DeepEqual(got, want[:k]) {
			t.Fatalf("trial %d (n=%d, k=%d): selected prefix %v, want %v", trial, n, k, got, want[:k])
		}
	}
}

// rollUpPageExhaustive is the pre-planner roll-up: score every matched
// document in ascending ID order, concept by concept, into a
// sequential collector. Kept as the equivalence oracle for the pruned
// scan — property tests require RollUpPage to reproduce its pages
// byte-for-byte at every generation, offset, and filter combination.
func (e *Engine) rollUpPageExhaustive(ctx context.Context, q Query, opts RollUpOptions) (RollUpPage, error) {
	st := e.state()
	out := RollUpPage{Generation: st.snap.Generation}
	if opts.K <= 0 || len(q) == 0 || opts.Offset < 0 {
		return out, nil
	}
	docs, err := st.matchedDocsCtx(ctx, q)
	if err != nil {
		return out, err
	}
	if len(docs) == 0 {
		return out, nil
	}
	var allowed map[corpus.Source]bool
	if len(opts.Sources) > 0 {
		allowed = make(map[corpus.Source]bool, len(opts.Sources))
		for _, s := range opts.Sources {
			allowed[s] = true
		}
	}
	periods := newPeriodAcc(opts.GroupBy)
	total := 0
	limit := opts.K + opts.Offset
	if limit < 0 || limit > len(docs) {
		limit = len(docs)
	}
	coll := topk.New[int32](limit)
	for i, d := range docs {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return RollUpPage{Generation: st.snap.Generation}, err
			}
		}
		if allowed != nil && !allowed[st.snap.Doc(d).Source] {
			continue
		}
		var ts int64
		if opts.Time != nil || periods != nil {
			ts = st.snap.Doc(d).PublishedAt
			if opts.Time != nil && !opts.Time.contains(ts) {
				continue
			}
		}
		rel := 0.0
		for _, c := range q {
			rel += st.contribution(c, d).CDR
		}
		if opts.MinScore > 0 && rel < opts.MinScore {
			continue
		}
		total++
		if periods != nil {
			periods.add(ts)
		}
		coll.Push(d, rel)
	}
	items := coll.Sorted()
	out.Total = total
	out.Periods = periods.buckets()
	if opts.Offset >= len(items) {
		return out, nil
	}
	items = items[opts.Offset:]
	out.Results = make([]DocResult, len(items))
	for i, it := range items {
		res := DocResult{Doc: corpus.DocID(it.Value), Score: it.Score}
		for _, c := range q {
			res.Contributors = append(res.Contributors, st.contribution(c, it.Value))
		}
		out.Results[i] = res
	}
	return out, nil
}

// TestPivotTieTakesFirstMatch pins the pivot rule on a tie: when two
// matched entities of a document weigh the same, the plan's pivot —
// the entity a roll-up explanation names — is the first in match
// order (the document's first-mention order), not the last and not
// the lowest node ID.
func TestPivotTieTakesFirstMatch(t *testing.T) {
	b := kg.NewBuilder()
	exchange := b.AddConcept("Crypto exchange")
	bank := b.AddConcept("Retail bank")
	alpha := b.AddInstance("Alphacoin Exchange")
	beta := b.AddInstance("Betacoin Exchange")
	gamma := b.AddInstance("Gammabank")
	b.AddType(alpha, exchange)
	b.AddType(beta, exchange)
	b.AddType(gamma, bank)
	b.AddInstanceEdge(alpha, gamma)
	b.AddInstanceEdge(beta, gamma)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Alpha and Beta each occur once, in document 0 only, so their
	// term frequencies and IDFs match. Beta is mentioned first.
	c := &corpus.Corpus{Docs: []corpus.Document{
		{Title: "Exchanges", Body: "Betacoin Exchange and Alphacoin Exchange halted withdrawals, Gammabank said.", PublishedAt: 1},
		{Title: "Bank", Body: "Gammabank reported earnings.", PublishedAt: 2},
		{Title: "Bank again", Body: "Gammabank opened branches.", PublishedAt: 3},
	}}
	e := NewEngine(g, Options{Seed: 11, Samples: 20})
	e.IndexCorpus(c)
	if got := e.Entities(0); len(got) < 2 || got[0] != beta || got[1] != alpha {
		t.Fatalf("document 0 links %v, want Betacoin then Alphacoin first", got)
	}
	wa, wb := e.EntityWeight(alpha, 0), e.EntityWeight(beta, 0)
	if wa != wb || wa <= 0 {
		t.Fatalf("entity weights %g and %g; the test needs a positive tie", wa, wb)
	}
	res := e.RollUp(Query{exchange}, 5)
	if len(res) != 1 || res[0].Doc != 0 {
		t.Fatalf("roll-up = %+v, want document 0 alone", res)
	}
	if p := res[0].Contributors[0].Pivot; p != beta {
		t.Fatalf("pivot = %s, want %s (first in match order)", g.Name(p), g.Name(beta))
	}
}
