package ncexplorer

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var (
	facadeOnce sync.Once
	facade     *Explorer
)

func getExplorer(t testing.TB) *Explorer {
	t.Helper()
	facadeOnce.Do(func() {
		x, err := New(Config{Scale: "tiny"})
		if err != nil {
			panic(err)
		}
		facade = x
	})
	return facade
}

func TestNewValidatesScale(t *testing.T) {
	if _, err := New(Config{Scale: "galactic"}); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestRollUpFacade(t *testing.T) {
	x := getExplorer(t)
	articles, err := x.RollUp([]string{"Bitcoin exchange", "Financial crime"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(articles) == 0 {
		t.Fatal("no articles")
	}
	for _, a := range articles {
		if a.Title == "" || a.Source == "" {
			t.Errorf("article underfilled: %+v", a)
		}
		if len(a.Explanations) != 2 {
			t.Errorf("explanations = %d, want 2", len(a.Explanations))
		}
		for _, e := range a.Explanations {
			if e.Concept != "Bitcoin exchange" && e.Concept != "Financial crime" {
				t.Errorf("unexpected explanation concept %q", e.Concept)
			}
			if e.CDR > 0 && e.Pivot == "" {
				t.Error("positive cdr without pivot name")
			}
		}
	}
}

func TestRollUpErrors(t *testing.T) {
	x := getExplorer(t)
	if _, err := x.RollUp(nil, 5); err == nil {
		t.Error("empty query should error")
	}
	if _, err := x.RollUp([]string{"No Such Concept"}, 5); err == nil {
		t.Error("unknown concept should error")
	}
	if _, err := x.RollUp([]string{"FTX"}, 5); err == nil || !strings.Contains(err.Error(), "entity") {
		t.Errorf("entity-as-concept should error helpfully, got %v", err)
	}
}

func TestDrillDownFacade(t *testing.T) {
	x := getExplorer(t)
	subs, err := x.DrillDown([]string{"Elections"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("no subtopics")
	}
	for i, s := range subs {
		if s.Concept == "" || s.MatchedDocs <= 0 {
			t.Errorf("subtopic underfilled: %+v", s)
		}
		if i > 0 && subs[i-1].Score < s.Score {
			t.Error("subtopics not sorted")
		}
	}
}

func TestFig1Workflow(t *testing.T) {
	// The paper's Fig. 1 walkthrough: roll up FTX to a concept, query,
	// then drill into a suggested subtopic.
	x := getExplorer(t)
	concepts, err := x.ConceptsForEntity("FTX")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range concepts {
		if c == "Bitcoin exchange" {
			found = true
		}
	}
	if !found {
		t.Fatalf("FTX concepts = %v, want Bitcoin exchange", concepts)
	}
	broader, err := x.BroaderConcepts("Bitcoin exchange")
	if err != nil {
		t.Fatal(err)
	}
	if len(broader) == 0 || broader[0] != "Cryptocurrency" {
		t.Fatalf("broader = %v", broader)
	}
	kws, err := x.TopicKeywords("Bitcoin exchange", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kws) == 0 {
		t.Fatal("no keywords")
	}
	articles, err := x.RollUp([]string{"Bitcoin exchange"}, 5)
	if err != nil || len(articles) == 0 {
		t.Fatalf("roll-up failed: %v", err)
	}
	subs, err := x.DrillDown([]string{"Bitcoin exchange"}, 5)
	if err != nil || len(subs) == 0 {
		t.Fatalf("drill-down failed: %v", err)
	}
	refined, err := x.RollUp([]string{"Bitcoin exchange", subs[0].Concept}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) > len(articles)+5 {
		t.Error("refined query should not explode the result set")
	}
}

func TestEvaluationTopics(t *testing.T) {
	x := getExplorer(t)
	topics := x.EvaluationTopics()
	if len(topics) != 6 {
		t.Fatalf("topics = %d", len(topics))
	}
	for _, pair := range topics {
		if _, err := x.RollUp([]string{pair[0], pair[1]}, 3); err != nil {
			t.Errorf("topic query %v failed: %v", pair, err)
		}
	}
}

func TestNumArticles(t *testing.T) {
	x := getExplorer(t)
	if x.NumArticles() < 100 {
		t.Errorf("articles = %d", x.NumArticles())
	}
}

func TestCanonicalConcepts(t *testing.T) {
	got := CanonicalConcepts([]string{" b ", "a", "b", "", "  ", "a"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v; want [a b]", got)
	}
	if got := CanonicalConcepts(nil); len(got) != 0 {
		t.Fatalf("nil query canonicalized to %v", got)
	}
	// The input slice must not be mutated.
	in := []string{"z", "y"}
	CanonicalConcepts(in)
	if in[0] != "z" || in[1] != "y" {
		t.Fatalf("input mutated: %v", in)
	}
	// Already-canonical input round-trips unchanged (fast path).
	done := []string{"a", "b"}
	if got := CanonicalConcepts(done); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("canonical input changed: %v", got)
	}
}

func TestStatsFacade(t *testing.T) {
	x := getExplorer(t)
	s := x.Stats()
	if s.Articles != x.NumArticles() {
		t.Errorf("stats articles = %d, NumArticles = %d", s.Articles, x.NumArticles())
	}
	if s.Concepts == 0 || s.Instances == 0 || s.Nodes != s.Concepts+s.Instances {
		t.Errorf("graph dimensions inconsistent: %+v", s)
	}
	if s.InstanceEdges == 0 || s.TypeAssertions == 0 {
		t.Errorf("edge counts missing: %+v", s)
	}
	if s2 := x.Stats(); !reflect.DeepEqual(s2, s) {
		t.Error("Stats should be a stable snapshot while the corpus is unchanged")
	}
	if s.Generation != 1 {
		t.Errorf("fresh explorer generation = %d, want 1", s.Generation)
	}
	if len(s.Segments) != 1 || s.Segments[0] != s.Articles {
		t.Errorf("fresh explorer segments = %v, want one segment of %d docs", s.Segments, s.Articles)
	}
}

func TestIngestFacade(t *testing.T) {
	x, err := New(Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	before := x.NumArticles()
	topics := x.EvaluationTopics()
	baseTotals := make([]int, len(topics))
	for i, tp := range topics {
		res, err := x.RollUpQuery(context.Background(), RollUpRequest{Concepts: []string{tp[0]}, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		baseTotals[i] = res.Total
	}

	// Validation: the batch is rejected atomically on any bad article.
	if _, err := x.Ingest(context.Background(), nil); err == nil {
		t.Fatal("empty batch should be rejected")
	}
	bad := []IngestArticle{
		{Source: "reuters", Title: "ok", Body: "fine"},
		{Source: "bloomberg", Title: "nope", Body: "unknown source"},
	}
	_, err = x.Ingest(context.Background(), bad)
	e, ok := AsError(err)
	if !ok || e.Code != CodeInvalidArgument {
		t.Fatalf("bad source error = %v, want CodeInvalidArgument", err)
	}
	if x.NumArticles() != before || x.Generation() != 1 {
		t.Fatal("rejected batch must not change the corpus")
	}

	arts, err := x.SampleArticles(31337, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Ingest(context.Background(), arts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 12 || res.Generation != 2 || res.TotalArticles != before+12 {
		t.Fatalf("ingest result = %+v", res)
	}
	if x.NumArticles() != before+12 || x.Generation() != 2 {
		t.Fatalf("explorer not updated: %d articles, generation %d", x.NumArticles(), x.Generation())
	}
	st := x.Stats()
	if st.Generation != 2 || len(st.Segments) != 2 || st.Segments[1] != 12 {
		t.Fatalf("stats after ingest: generation=%d segments=%v", st.Generation, st.Segments)
	}
	if st.Ingest.Batches != 1 || st.Ingest.Docs != 12 {
		t.Fatalf("ingest counters = %+v", st.Ingest)
	}

	// Ingested articles are retrievable: match totals never shrink
	// (append-only corpus) and at least one evaluation topic must pick
	// up new coverage from a 12-article sample.
	grew := false
	for i, tp := range topics {
		res, err := x.RollUpQuery(context.Background(), RollUpRequest{Concepts: []string{tp[0]}, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Generation != 2 {
			t.Fatalf("query served at generation %d, want 2", res.Generation)
		}
		if res.Total < baseTotals[i] {
			t.Fatalf("topic %q total shrank after ingest: %d → %d", tp[0], baseTotals[i], res.Total)
		}
		if res.Total > baseTotals[i] {
			grew = true
		}
	}
	if !grew {
		t.Error("no evaluation topic gained coverage from the ingested batch")
	}
}
