package baselines

import (
	"fmt"
	"testing"
	"testing/quick"

	"ncexplorer/internal/nlp"
	"ncexplorer/internal/xrand"
)

func buildBM25(t testing.TB, docs []string) *bm25Index {
	t.Helper()
	ix := newBM25()
	for i, d := range docs {
		ix.add(int32(i), nlp.Terms(d))
	}
	return ix
}

func TestBasicRetrieval(t *testing.T) {
	ix := buildBM25(t, []string{
		"the regulator fined the exchange for fraud",
		"the election turnout surprised pollsters",
		"fraud charges against the exchange widened",
	})
	hits := ix.search(nlp.Terms("exchange fraud"), 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Doc == 1 || hits[1].Doc == 1 {
		t.Fatalf("irrelevant doc retrieved: %+v", hits)
	}
	if hits[0].Score < hits[1].Score {
		t.Fatal("results not sorted by score")
	}
}

func TestIDFAndRareTermsWin(t *testing.T) {
	// "tariff" is rare, "market" is everywhere: a doc matching the rare
	// term must outrank one matching only the common term.
	docs := []string{
		"tariff dispute shakes market",
		"market update for traders",
		"market overview and market notes",
		"market conditions remain calm",
	}
	ix := buildBM25(t, docs)
	if ix.idf("tariff") <= ix.idf("market") {
		t.Fatalf("IDF(tariff)=%v should exceed IDF(market)=%v",
			ix.idf("tariff"), ix.idf("market"))
	}
	hits := ix.search(nlp.Terms("tariff market"), 4)
	if hits[0].Doc != 0 {
		t.Fatalf("doc 0 should rank first: %+v", hits)
	}
}

func TestDocLengthNormalization(t *testing.T) {
	// Same tf, shorter doc ⇒ higher BM25.
	long := "merger merger talk talk talk deal deal outlook outlook review review statement statement"
	short := "merger deal"
	ix := buildBM25(t, []string{long, short})
	hits := ix.search(nlp.Terms("merger"), 2)
	if hits[0].Doc != 1 {
		t.Fatalf("short doc should win: %+v", hits)
	}
}

func TestTopKLimit(t *testing.T) {
	var docs []string
	for i := 0; i < 50; i++ {
		docs = append(docs, "common filler text number "+fmt.Sprint(i))
	}
	ix := buildBM25(t, docs)
	hits := ix.search(nlp.Terms("common filler"), 5)
	if len(hits) != 5 {
		t.Fatalf("len = %d, want 5", len(hits))
	}
}

func TestEmptyQueryAndIndex(t *testing.T) {
	ix := newBM25()
	if hits := ix.search(nlp.Terms("anything"), 5); hits != nil {
		t.Fatalf("empty index returned %+v", hits)
	}
	ix = buildBM25(t, []string{"some document"})
	if hits := ix.search(map[string]int{}, 5); len(hits) != 0 {
		t.Fatalf("empty query returned %+v", hits)
	}
	if hits := ix.search(nlp.Terms("unknownword"), 5); len(hits) != 0 {
		t.Fatalf("unknown term returned %+v", hits)
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	ix := newBM25()
	ix.add(1, map[string]int{"a": 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate doc")
		}
	}()
	ix.add(1, map[string]int{"b": 1})
}

func TestStatsAccessors(t *testing.T) {
	ix := buildBM25(t, []string{"alpha beta beta", "alpha gamma"})
	if ix.numDocs() != 2 {
		t.Errorf("numDocs = %d", ix.numDocs())
	}
	if len(ix.postings["alpha"]) != 2 || len(ix.postings["beta"]) != 1 {
		t.Errorf("DF wrong: %d/%d", len(ix.postings["alpha"]), len(ix.postings["beta"]))
	}
	if ix.docLen[0] != 3 || ix.docLen[1] != 2 {
		t.Errorf("docLen wrong: %d/%d", ix.docLen[0], ix.docLen[1])
	}
	if ix.totalLen != 5 {
		t.Errorf("totalLen = %d", ix.totalLen)
	}
	if tf := ix.postings["beta"][0].tf; tf != 2 {
		t.Errorf("TF = %d", tf)
	}
}

func TestSearchDeterminism(t *testing.T) {
	r := xrand.New(3)
	var docs []string
	words := []string{"trade", "court", "vote", "deal", "strike", "fraud", "bank"}
	for i := 0; i < 40; i++ {
		s := ""
		for j := 0; j < 6; j++ {
			s += words[r.Intn(len(words))] + " "
		}
		docs = append(docs, s)
	}
	ix := buildBM25(t, docs)
	q := nlp.Terms("trade fraud")
	first := ix.search(q, 10)
	for run := 0; run < 5; run++ {
		again := ix.search(q, 10)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic results at run %d", run)
			}
		}
	}
}

// Property: BM25 scores are non-negative and results are sorted.
func TestBM25Invariants(t *testing.T) {
	words := []string{"a1", "b2", "c3", "d4", "e5", "f6"}
	err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		ix := newBM25()
		for d := 0; d < 20; d++ {
			tf := map[string]int{}
			for j := 0; j < 5; j++ {
				tf[words[r.Intn(len(words))]]++
			}
			ix.add(int32(d), tf)
		}
		q := map[string]int{words[r.Intn(len(words))]: 1, words[r.Intn(len(words))]: 1}
		hits := ix.search(q, 10)
		for i, h := range hits {
			if h.Score < 0 {
				return false
			}
			if i > 0 && hits[i-1].Score < h.Score {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkSearchBM25(b *testing.B) {
	r := xrand.New(1)
	ix := newBM25()
	vocab := make([]string, 500)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	for d := 0; d < 2000; d++ {
		tf := map[string]int{}
		for j := 0; j < 80; j++ {
			tf[vocab[r.Intn(len(vocab))]]++
		}
		ix.add(int32(d), tf)
	}
	q := map[string]int{"w1": 1, "w2": 1, "w3": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.search(q, 10)
	}
}
