package core

import (
	"sync"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
)

// shared world: generating + indexing once keeps the test suite fast.
var (
	worldOnce sync.Once
	worldG    *kg.Graph
	worldMeta *kggen.Meta
	worldC    *corpus.Corpus
	worldE    *Engine
)

func world(t testing.TB) (*kg.Graph, *kggen.Meta, *corpus.Corpus, *Engine) {
	t.Helper()
	worldOnce.Do(func() {
		worldG, worldMeta = kggen.MustGenerate(kggen.Tiny())
		worldC = corpus.MustGenerate(worldG, worldMeta, corpus.Tiny())
		worldE = NewEngine(worldG, Options{Seed: 11, Samples: 20})
		worldE.IndexCorpus(worldC)
	})
	return worldG, worldMeta, worldC, worldE
}

func TestIndexStats(t *testing.T) {
	_, _, c, e := world(t)
	st := e.Stats()
	if st.Docs != c.Len() {
		t.Fatalf("docs = %d, want %d", st.Docs, c.Len())
	}
	for _, src := range corpus.Sources {
		ss := st.PerSource[src]
		if ss.Articles == 0 || ss.TotalMentions == 0 || ss.LinkedMentions == 0 {
			t.Errorf("%s stats empty: %+v", src, ss)
		}
		if ss.LinkedMentions > ss.TotalMentions {
			t.Errorf("%s linked > total", src)
		}
	}
	if st.LinkNanos <= 0 || st.ScoreNanos <= 0 {
		t.Errorf("timings not recorded: link=%d score=%d", st.LinkNanos, st.ScoreNanos)
	}
}

func TestRollUpMatchingSemantics(t *testing.T) {
	g, meta, _, e := world(t)
	for _, topic := range meta.Topics {
		q := Query{topic.Concept, topic.GroupConcept}
		results := e.RollUp(q, 5)
		if len(results) == 0 {
			t.Errorf("topic %q: no results", topic.Name)
			continue
		}
		for _, res := range results {
			// Definition 1: each result must contain an entity from the
			// extent closure of every query concept.
			for _, c := range q {
				ext := map[kg.NodeID]struct{}{}
				for _, v := range g.ExtentClosure(c, 0) {
					ext[v] = struct{}{}
				}
				found := false
				for _, v := range e.Entities(int32(res.Doc)) {
					if _, ok := ext[v]; ok {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("topic %q doc %d does not match concept %q",
						topic.Name, res.Doc, g.Name(c))
				}
			}
		}
		// Scores must be non-increasing.
		for i := 1; i < len(results); i++ {
			if results[i].Score > results[i-1].Score {
				t.Errorf("topic %q results not sorted", topic.Name)
			}
		}
	}
}

func TestRollUpExplanations(t *testing.T) {
	g, meta, _, e := world(t)
	topic := meta.Topics[0]
	q := Query{topic.Concept, topic.GroupConcept}
	results := e.RollUp(q, 3)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, res := range results {
		if len(res.Contributors) != len(q) {
			t.Fatalf("contributors = %d, want %d", len(res.Contributors), len(q))
		}
		total := 0.0
		for _, cc := range res.Contributors {
			total += cc.CDR
			if cc.CDR > 0 && cc.Pivot == kg.InvalidNode {
				t.Error("positive cdr without pivot entity")
			}
			if cc.CDR > 0 && !g.IsInstance(cc.Pivot) {
				t.Error("pivot is not an instance")
			}
		}
		if diff := total - res.Score; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("score %v != Σ contributions %v", res.Score, total)
		}
	}
}

func TestRollUpRetrievesOnTopicDocs(t *testing.T) {
	// Quality smoke test: the top-5 results for each evaluation topic
	// should be mostly docs the generator labelled topical (gold ≥ 3).
	_, meta, c, e := world(t)
	good, total := 0, 0
	for _, topic := range meta.Topics {
		for _, res := range e.RollUp(Query{topic.Concept, topic.GroupConcept}, 5) {
			total++
			if c.Doc(res.Doc).Gold(topic.Concept) >= 3 {
				good++
			}
		}
	}
	if total == 0 {
		t.Fatal("no results at all")
	}
	if frac := float64(good) / float64(total); frac < 0.6 {
		t.Errorf("only %.0f%% of roll-up results are on-topic (%d/%d)", frac*100, good, total)
	}
}

func TestRollUpDeterminism(t *testing.T) {
	g, meta, c, _ := world(t)
	e1 := NewEngine(g, Options{Seed: 5, Samples: 10})
	e1.IndexCorpus(c)
	e2 := NewEngine(g, Options{Seed: 5, Samples: 10})
	e2.IndexCorpus(c)
	q := Query{meta.Topics[0].Concept, meta.Topics[0].GroupConcept}
	r1 := e1.RollUp(q, 10)
	r2 := e2.RollUp(q, 10)
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Doc != r2[i].Doc || r1[i].Score != r2[i].Score {
			t.Fatalf("result %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	// Same engine, repeated query.
	r3 := e1.RollUp(q, 10)
	for i := range r1 {
		if r1[i].Doc != r3[i].Doc || r1[i].Score != r3[i].Score {
			t.Fatalf("repeat query differs at %d", i)
		}
	}
}

func TestMatchedDocsSubsetAndOrder(t *testing.T) {
	_, meta, _, e := world(t)
	topic := meta.Topics[0]
	both := e.MatchedDocs(Query{topic.Concept, topic.GroupConcept})
	one := e.MatchedDocs(Query{topic.Concept})
	if len(both) > len(one) {
		t.Fatal("adding a concept cannot grow the match set")
	}
	set := map[corpus.DocID]struct{}{}
	for _, d := range one {
		set[d] = struct{}{}
	}
	for i, d := range both {
		if _, ok := set[d]; !ok {
			t.Fatal("intersection not a subset")
		}
		if i > 0 && both[i-1] >= d {
			t.Fatal("matched docs not sorted")
		}
	}
}

func TestDrillDown(t *testing.T) {
	g, meta, _, e := world(t)
	topic := meta.Topics[0]
	q := Query{topic.Concept, topic.GroupConcept}
	subs := e.DrillDown(q, 10)
	if len(subs) == 0 {
		t.Fatal("no subtopics")
	}
	inQ := map[kg.NodeID]struct{}{topic.Concept: {}, topic.GroupConcept: {}}
	for i, sub := range subs {
		if _, bad := inQ[sub.Concept]; bad {
			t.Error("query concept suggested as subtopic")
		}
		if !g.IsConcept(sub.Concept) {
			t.Error("subtopic is not a concept")
		}
		if sub.Coverage < 0 || sub.Diversity < 0 || sub.MatchedDocs <= 0 {
			t.Errorf("bad components: %+v", sub)
		}
		if i > 0 && subs[i-1].Score < sub.Score {
			t.Error("subtopics not sorted")
		}
	}
}

func TestDrillDownNarrowsResults(t *testing.T) {
	// Selecting a suggested subtopic must narrow the matched set:
	// D(Q ∪ {c}) ⊆ D(Q).
	_, meta, _, e := world(t)
	topic := meta.Topics[1]
	q := Query{topic.Concept}
	subs := e.DrillDown(q, 3)
	if len(subs) == 0 {
		t.Skip("no subtopics for this topic")
	}
	before := len(e.MatchedDocs(q))
	after := len(e.MatchedDocs(append(Query{subs[0].Concept}, q...)))
	if after > before {
		t.Fatalf("drill-down grew the result set: %d → %d", before, after)
	}
	if after == 0 {
		t.Fatal("suggested subtopic matches no documents")
	}
}

func TestDrillDownAblationComponents(t *testing.T) {
	_, meta, _, e := world(t)
	topic := meta.Topics[0]
	q := Query{topic.Concept, topic.GroupConcept}
	cOnly := e.DrillDownComponents(q, 5, false, false)
	cs := e.DrillDownComponents(q, 5, true, false)
	csd := e.DrillDownComponents(q, 5, true, true)
	if len(cOnly) == 0 || len(cs) == 0 || len(csd) == 0 {
		t.Fatal("ablation variant returned nothing")
	}
	// Score definitions differ.
	for _, sub := range cOnly {
		if sub.Score != sub.Coverage {
			t.Errorf("C-only score %v != coverage %v", sub.Score, sub.Coverage)
		}
	}
	for _, sub := range csd {
		want := sub.Coverage * sub.Specificity * sub.Diversity
		if diff := sub.Score - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("C+S+D score %v != product %v", sub.Score, want)
		}
	}
}

func TestQueryEdgeCases(t *testing.T) {
	_, meta, _, e := world(t)
	if got := e.RollUp(nil, 5); got != nil {
		t.Error("empty query should return nil")
	}
	if got := e.RollUp(Query{meta.Topics[0].Concept}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := e.DrillDown(nil, 5); got != nil {
		t.Error("empty drill-down should return nil")
	}
}

func TestConceptsForEntity(t *testing.T) {
	g, _, _, e := world(t)
	ftx := g.MustLookup("FTX")
	concepts := e.ConceptsForEntity(ftx)
	if len(concepts) == 0 {
		t.Fatal("FTX has no concepts")
	}
	found := false
	for _, c := range concepts {
		if g.Name(c) == "Bitcoin exchange" {
			found = true
		}
	}
	if !found {
		t.Error("Bitcoin exchange missing from FTX concepts")
	}
	for i := 1; i < len(concepts); i++ {
		if g.Specificity(concepts[i-1]) < g.Specificity(concepts[i]) {
			t.Error("concepts not sorted by specificity")
		}
	}
}

func TestBroaderOptions(t *testing.T) {
	g, _, _, e := world(t)
	be := g.MustLookup("Bitcoin exchange")
	opts := e.BroaderOptions(be)
	if len(opts) != 1 || g.Name(opts[0]) != "Cryptocurrency" {
		t.Fatalf("broader(Bitcoin exchange) = %v", opts)
	}
}

func TestTopicKeywords(t *testing.T) {
	g, _, _, e := world(t)
	be := g.MustLookup("Bitcoin exchange")
	kws := e.TopicKeywords(be, 5)
	if len(kws) == 0 {
		t.Fatal("no keywords")
	}
	// The curated exchanges are the best-connected members.
	names := map[string]bool{}
	for _, k := range kws {
		names[k] = true
	}
	if !names["FTX"] && !names["Binance"] && !names["Coinbase"] {
		t.Errorf("keywords %v miss the curated exchanges", kws)
	}
	if got := e.TopicKeywords(be, 0); got != nil {
		t.Error("n=0 should return nil")
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, meta, _, e := world(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := meta.Topics[w%len(meta.Topics)]
			q := Query{topic.Concept, topic.GroupConcept}
			e.RollUp(q, 5)
			e.DrillDown(q, 5)
		}(w)
	}
	wg.Wait()
}

func TestDoubleIndexPanics(t *testing.T) {
	g, meta, _, _ := world(t)
	c := corpus.MustGenerate(g, meta, corpus.Tiny())
	e := NewEngine(g, Options{Workers: 1, Samples: 1})
	e.IndexCorpus(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double index")
		}
	}()
	e.IndexCorpus(c)
}

func BenchmarkRollUp(b *testing.B) {
	_, meta, _, e := world(b)
	q := Query{meta.Topics[0].Concept, meta.Topics[0].GroupConcept}
	e.RollUp(q, 5) // warm the pooled scratch and ceilings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RollUp(q, 5)
	}
}

func BenchmarkDrillDown(b *testing.B) {
	_, meta, _, e := world(b)
	q := Query{meta.Topics[0].Concept, meta.Topics[0].GroupConcept}
	e.DrillDown(q, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DrillDown(q, 10)
	}
}
