package textindex

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"ncexplorer/internal/nlp"
	"ncexplorer/internal/xrand"
)

func buildIndex(t testing.TB, docs []string) *Index {
	t.Helper()
	ix := New()
	for i, d := range docs {
		ix.Add(int32(i), nlp.Terms(d))
	}
	return ix
}

func TestBasicRetrieval(t *testing.T) {
	ix := buildIndex(t, []string{
		"the regulator fined the exchange for fraud",
		"the election turnout surprised pollsters",
		"fraud charges against the exchange widened",
	})
	hits := ix.SearchBM25(nlp.Terms("exchange fraud"), 10)
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
	ix := buildIndex(t, docs)
	if ix.IDF("tariff") <= ix.IDF("market") {
		t.Fatalf("IDF(tariff)=%v should exceed IDF(market)=%v",
			ix.IDF("tariff"), ix.IDF("market"))
	}
	hits := ix.SearchBM25(nlp.Terms("tariff market"), 4)
	if hits[0].Doc != 0 {
		t.Fatalf("doc 0 should rank first: %+v", hits)
	}
}

func TestDocLengthNormalization(t *testing.T) {
	// Same tf, shorter doc ⇒ higher BM25.
	long := "merger merger talk talk talk deal deal outlook outlook review review statement statement"
	short := "merger deal"
	ix := buildIndex(t, []string{long, short})
	hits := ix.SearchBM25(nlp.Terms("merger"), 2)
	if hits[0].Doc != 1 {
		t.Fatalf("short doc should win: %+v", hits)
	}
}

func TestTFIDFBounds(t *testing.T) {
	ix := buildIndex(t, []string{
		"ftx ftx ftx collapse",
		"ftx mentioned once among many other interesting words today",
		"nothing relevant here at all",
	})
	w0 := ix.TFIDF("ftx", 0)
	w1 := ix.TFIDF("ftx", 1)
	w2 := ix.TFIDF("ftx", 2)
	if w0 <= w1 {
		t.Errorf("dominant term should weigh more: %v vs %v", w0, w1)
	}
	if w2 != 0 {
		t.Errorf("absent term weight = %v, want 0", w2)
	}
	for _, w := range []float64{w0, w1} {
		if w <= 0 || w > 1 {
			t.Errorf("weight out of (0,1]: %v", w)
		}
	}
}

func TestTopKLimit(t *testing.T) {
	var docs []string
	for i := 0; i < 50; i++ {
		docs = append(docs, "common filler text number "+fmt.Sprint(i))
	}
	ix := buildIndex(t, docs)
	hits := ix.SearchBM25(nlp.Terms("common filler"), 5)
	if len(hits) != 5 {
		t.Fatalf("len = %d, want 5", len(hits))
	}
}

func TestEmptyQueryAndIndex(t *testing.T) {
	ix := New()
	if hits := ix.SearchBM25(nlp.Terms("anything"), 5); hits != nil {
		t.Fatalf("empty index returned %+v", hits)
	}
	ix = buildIndex(t, []string{"some document"})
	if hits := ix.SearchBM25(map[string]int{}, 5); len(hits) != 0 {
		t.Fatalf("empty query returned %+v", hits)
	}
	if hits := ix.SearchBM25(nlp.Terms("unknownword"), 5); len(hits) != 0 {
		t.Fatalf("unknown term returned %+v", hits)
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"a": 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate doc")
		}
	}()
	ix.Add(1, map[string]int{"b": 1})
}

func TestStatsAccessors(t *testing.T) {
	ix := buildIndex(t, []string{"alpha beta beta", "alpha gamma"})
	if ix.NumDocs() != 2 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if ix.DF("alpha") != 2 || ix.DF("beta") != 1 {
		t.Errorf("DF wrong: %d/%d", ix.DF("alpha"), ix.DF("beta"))
	}
	if ix.DocLen(0) != 3 || ix.DocLen(1) != 2 {
		t.Errorf("DocLen wrong: %d/%d", ix.DocLen(0), ix.DocLen(1))
	}
	if math.Abs(ix.AvgDocLen()-2.5) > 1e-9 {
		t.Errorf("AvgDocLen = %v", ix.AvgDocLen())
	}
	if ix.TF("beta", 0) != 2 {
		t.Errorf("TF = %d", ix.TF("beta", 0))
	}
}

func TestTFAfterFreezeUsesBinarySearch(t *testing.T) {
	ix := buildIndex(t, []string{"x common", "y common", "z common"})
	ix.SearchBM25(nlp.Terms("common"), 1) // triggers freeze
	if ix.TF("common", 1) != 1 {
		t.Errorf("frozen TF lookup failed")
	}
	if ix.TF("common", 99) != 0 {
		t.Errorf("frozen TF for absent doc should be 0")
	}
	ps := ix.Postings("common")
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Doc >= ps[i].Doc {
			t.Fatal("postings not sorted after freeze")
		}
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
	ix := buildIndex(t, docs)
	q := nlp.Terms("trade fraud")
	first := ix.SearchBM25(q, 10)
	for run := 0; run < 5; run++ {
		again := ix.SearchBM25(q, 10)
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
		ix := New()
		for d := 0; d < 20; d++ {
			tf := map[string]int{}
			for j := 0; j < 5; j++ {
				tf[words[r.Intn(len(words))]]++
			}
			ix.Add(int32(d), tf)
		}
		q := map[string]int{words[r.Intn(len(words))]: 1, words[r.Intn(len(words))]: 1}
		hits := ix.SearchBM25(q, 10)
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
	ix := New()
	vocab := make([]string, 500)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	for d := 0; d < 2000; d++ {
		tf := map[string]int{}
		for j := 0; j < 80; j++ {
			tf[vocab[r.Intn(len(vocab))]]++
		}
		ix.Add(int32(d), tf)
	}
	q := map[string]int{"w1": 1, "w2": 1, "w3": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchBM25(q, 10)
	}
}
