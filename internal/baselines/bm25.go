package baselines

import (
	"math"
	"sort"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/topk"
)

// BM25 parameters (the standard Robertson defaults the paper's Lucene
// configuration uses).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// posting records one document's term frequency for a term.
type posting struct {
	doc int32
	tf  int32
}

// bm25Index is the in-memory inverted index behind the Lucene baseline
// ("a typical bag-of-words keyword match model … BM25 for the term
// weighting scheme") and NewsLink's bag of KG nodes. Documents are
// added once, identified by dense int32 IDs; the index is then
// read-only and safe for concurrent searches.
type bm25Index struct {
	postings map[string][]posting
	docLen   map[int32]int
	totalLen int64
}

func newBM25() *bm25Index {
	return &bm25Index{
		postings: make(map[string][]posting),
		docLen:   make(map[int32]int),
	}
}

// add indexes a document given its term-frequency map. Each document ID
// may be added once; add panics on duplicates to surface pipeline bugs.
func (ix *bm25Index) add(doc int32, tf map[string]int) {
	if _, dup := ix.docLen[doc]; dup {
		panic("baselines: duplicate document ID")
	}
	length := 0
	for term, f := range tf {
		if f <= 0 {
			continue
		}
		ix.postings[term] = append(ix.postings[term], posting{doc: doc, tf: int32(f)})
		length += f
	}
	ix.docLen[doc] = length
	ix.totalLen += int64(length)
}

// numDocs returns the number of indexed documents.
func (ix *bm25Index) numDocs() int { return len(ix.docLen) }

// idf returns the BM25 inverse document frequency of a term.
func (ix *bm25Index) idf(term string) float64 {
	df := float64(len(ix.postings[term]))
	return math.Log(1 + (float64(ix.numDocs())-df+0.5)/(df+0.5))
}

// search returns the top-k documents for a bag-of-words query. Each
// document's score sums its terms in sorted term order, so results do
// not depend on map or posting order.
func (ix *bm25Index) search(query map[string]int, k int) []Result {
	n := ix.numDocs()
	if k <= 0 || n == 0 {
		return nil
	}
	avg := float64(ix.totalLen) / float64(n)
	scores := make(map[int32]float64)
	terms := make([]string, 0, len(query))
	for term, qf := range query {
		if qf > 0 && len(ix.postings[term]) > 0 {
			terms = append(terms, term)
		}
	}
	sort.Strings(terms)
	for _, term := range terms {
		idf := ix.idf(term)
		for _, p := range ix.postings[term] {
			tf := float64(p.tf)
			dl := float64(ix.docLen[p.doc])
			denom := tf + bm25K1*(1-bm25B+bm25B*dl/avg)
			scores[p.doc] += idf * tf * (bm25K1 + 1) / denom
		}
	}
	// Deterministic result order: push docs in ascending ID.
	docs := make([]int32, 0, len(scores))
	for doc := range scores {
		docs = append(docs, doc)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	coll := topk.New[int32](k)
	for _, doc := range docs {
		coll.Push(doc, scores[doc])
	}
	items := coll.Sorted()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{Doc: corpus.DocID(it.Value), Score: it.Score}
	}
	return out
}
