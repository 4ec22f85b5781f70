// Package textindex implements an inverted index with BM25 ranking and
// TF-IDF term weights: the paper's Lucene baseline ("a typical
// bag-of-words keyword match model … BM25 for the term weighting
// scheme") and the NewsLink baseline's entity index. (The engine's
// term weight tw(v, d) uses the same IDF and saturation, computed
// directly over its segments' entity postings.)
//
// Documents are added once, identified by dense int32 IDs; the index is
// then read-only and safe for concurrent searches.
package textindex

import (
	"math"
	"sort"

	"ncexplorer/internal/topk"
)

// BM25 parameters (the standard Robertson defaults the paper's Lucene
// configuration uses).
const (
	k1 = 1.2
	b  = 0.75
)

// Posting records one document's term frequency for a term.
type Posting struct {
	Doc int32
	TF  int32
}

// Hit is one search result.
type Hit struct {
	Doc   int32
	Score float64
}

// Index is an in-memory inverted index.
type Index struct {
	postings map[string][]Posting
	docLen   map[int32]int
	totalLen int64
	n        int
	frozen   bool
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		docLen:   make(map[int32]int),
	}
}

// Add indexes a document given its term-frequency map. Each document ID
// may be added once; Add panics on duplicates to surface pipeline bugs.
func (ix *Index) Add(doc int32, tf map[string]int) {
	if _, dup := ix.docLen[doc]; dup {
		panic("textindex: duplicate document ID")
	}
	ix.frozen = false
	length := 0
	for term, f := range tf {
		if f <= 0 {
			continue
		}
		ix.postings[term] = append(ix.postings[term], Posting{Doc: doc, TF: int32(f)})
		length += f
	}
	ix.docLen[doc] = length
	ix.totalLen += int64(length)
	ix.n++
}

// Freeze sorts postings by document ID and marks the index immutable
// in practice: after Freeze (and absent further Add calls, which
// unfreeze), every read method — TF, TFIDF, IDF, SearchBM25, Postings —
// touches only frozen data and is therefore safe for concurrent use.
// TF lookups switch from linear scans to binary searches. Call it once
// indexing is complete, before serving concurrent readers.
func (ix *Index) Freeze() { ix.freeze() }

// freeze sorts postings by document ID for deterministic iteration.
func (ix *Index) freeze() {
	if ix.frozen {
		return
	}
	for term := range ix.postings {
		ps := ix.postings[term]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Doc < ps[j].Doc })
	}
	ix.frozen = true
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.n }

// DF returns the document frequency of a term.
func (ix *Index) DF(term string) int { return len(ix.postings[term]) }

// DocLen returns the token length of a document.
func (ix *Index) DocLen(doc int32) int { return ix.docLen[doc] }

// AvgDocLen returns the mean document length.
func (ix *Index) AvgDocLen() float64 {
	if ix.n == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(ix.n)
}

// IDF returns the BM25 inverse document frequency of a term.
func (ix *Index) IDF(term string) float64 {
	df := float64(ix.DF(term))
	return math.Log(1 + (float64(ix.n)-df+0.5)/(df+0.5))
}

// TF returns the term frequency of term in doc (0 if absent).
func (ix *Index) TF(term string, doc int32) int {
	ps := ix.postings[term]
	// Postings may be unsorted before freeze; linear scan is fine for
	// the short lists involved, but binary search after freeze.
	if ix.frozen {
		i := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
		if i < len(ps) && ps[i].Doc == doc {
			return int(ps[i].TF)
		}
		return 0
	}
	for _, p := range ps {
		if p.Doc == doc {
			return int(p.TF)
		}
	}
	return 0
}

// TFIDF returns a normalised TF-IDF weight in [0, 1]: a saturated term
// frequency tf/(tf+1) damped by IDF relative to the maximum possible
// IDF — the shape of the tw(v, d) the ontology relevance score uses.
// Saturation (the BM25 family's tf treatment) rewards *repeated*
// mentions — an entity a story keeps returning to — without rewarding
// document brevity: raw tf/len would let a one-line market wrap outrank
// sustained coverage for the same entity.
func (ix *Index) TFIDF(term string, doc int32) float64 {
	tf := ix.TF(term, doc)
	if tf == 0 {
		return 0
	}
	idfMax := math.Log(1 + (float64(ix.n)+0.5)/0.5)
	if idfMax == 0 {
		return 0
	}
	sat := float64(tf) / (float64(tf) + 1)
	return sat * (ix.IDF(term) / idfMax)
}

// SearchBM25 returns the top-k documents for a bag-of-words query.
func (ix *Index) SearchBM25(query map[string]int, k int) []Hit {
	ix.freeze()
	if k <= 0 || ix.n == 0 {
		return nil
	}
	avg := ix.AvgDocLen()
	scores := make(map[int32]float64)
	// Deterministic term order.
	terms := make([]string, 0, len(query))
	for term, qf := range query {
		if qf > 0 && len(ix.postings[term]) > 0 {
			terms = append(terms, term)
		}
	}
	sort.Strings(terms)
	for _, term := range terms {
		idf := ix.IDF(term)
		for _, p := range ix.postings[term] {
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			denom := tf + k1*(1-b+b*dl/avg)
			scores[p.Doc] += idf * tf * (k1 + 1) / denom
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
	out := make([]Hit, len(items))
	for i, it := range items {
		out[i] = Hit{Doc: it.Value, Score: it.Score}
	}
	return out
}

// Postings exposes a term's posting list (frozen order). The returned
// slice must not be modified.
func (ix *Index) Postings(term string) []Posting {
	ix.freeze()
	return ix.postings[term]
}
