// Package baselines implements the four compared methods of the
// paper's evaluation (§IV) behind one Searcher interface, so the
// harness treats every method — including NCExplorer via an adapter —
// uniformly:
//
//   - Lucene: bag-of-words keyword match with BM25 (bm25.go);
//   - BERT: dense retrieval over deterministic text embeddings
//     (internal/embed) through the vector store (internal/vecstore);
//   - NewsLink: the structure-based state of the art — documents and
//     queries are expanded into KG subgraphs (seed entities plus
//     connecting nodes) and matched as bags of KG nodes;
//   - NewsLink-BERT: the hybrid — the query's NewsLink expansion is
//     verbalised into a long text query and retrieved densely.
package baselines

import (
	"sort"
	"strconv"
	"strings"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/embed"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/nlp"
	"ncexplorer/internal/vecstore"
)

// Query carries both the keyword form (for text methods) and the
// concept-pattern form (for KG methods) of an evaluation query, e.g.
// Text "Elections in African countries", Concepts {Elections, African
// country}.
type Query struct {
	Text     string
	Concepts []kg.NodeID
}

// Result is one retrieved document.
type Result struct {
	Doc   corpus.DocID
	Score float64
}

// Searcher is the common retrieval interface.
type Searcher interface {
	// Name identifies the method in tables ("Lucene", "BERT", …).
	Name() string
	// Index ingests the corpus. Called once.
	Index(c *corpus.Corpus) error
	// Search returns the top-k documents for the query.
	Search(q Query, k int) []Result
}

// ── Lucene ──────────────────────────────────────────────────────────

// Lucene is the BM25 bag-of-words baseline.
type Lucene struct {
	ix *bm25Index
}

// NewLucene returns an unindexed Lucene baseline.
func NewLucene() *Lucene { return &Lucene{ix: newBM25()} }

// Name implements Searcher.
func (l *Lucene) Name() string { return "Lucene" }

// Index implements Searcher.
func (l *Lucene) Index(c *corpus.Corpus) error {
	for i := range c.Docs {
		l.ix.add(int32(c.Docs[i].ID), nlp.Terms(c.Docs[i].Text()))
	}
	return nil
}

// Search implements Searcher.
func (l *Lucene) Search(q Query, k int) []Result {
	return l.ix.search(nlp.Terms(q.Text), k)
}

// Score returns the raw BM25 score of one document for a query text
// (0 when unranked); the evaluator model uses it as the surface-match
// signal.
func (l *Lucene) Score(text string, doc corpus.DocID) float64 {
	terms := nlp.Terms(text)
	hits := l.ix.search(terms, l.ix.numDocs())
	for _, h := range hits {
		if h.Doc == doc {
			return h.Score
		}
	}
	return 0
}

// ── BERT ────────────────────────────────────────────────────────────

// BERT is the dense-retrieval baseline (SBERT + Qdrant in the paper).
type BERT struct {
	emb   *embed.Embedder
	store *vecstore.Store
}

// NewBERT returns an unindexed BERT baseline.
func NewBERT() *BERT {
	e := embed.New(0)
	return &BERT{emb: e, store: vecstore.New(e.Dim())}
}

// Name implements Searcher.
func (b *BERT) Name() string { return "BERT" }

// Index implements Searcher.
func (b *BERT) Index(c *corpus.Corpus) error {
	for i := range c.Docs {
		if err := b.store.Add(int32(c.Docs[i].ID), b.emb.EmbedText(c.Docs[i].Text())); err != nil {
			return err
		}
	}
	return nil
}

// Search implements Searcher.
func (b *BERT) Search(q Query, k int) []Result {
	return b.SearchVector(b.emb.EmbedText(q.Text), k)
}

// SearchVector retrieves by a caller-built query vector (used by the
// NewsLink-BERT hybrid to mix query and expansion embeddings).
func (b *BERT) SearchVector(v []float32, k int) []Result {
	hits := b.store.Search(v, k)
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{Doc: corpus.DocID(h.ID), Score: h.Score}
	}
	return out
}

// Embedder exposes the baseline's embedder (shared by the hybrid).
func (b *BERT) Embedder() *embed.Embedder { return b.emb }

// ── NewsLink ────────────────────────────────────────────────────────

// NewsLink is the structure-based baseline: each document is expanded
// into a KG subgraph (its seed entities plus hidden nodes connecting
// them) and represented as a bag of KG node IDs; queries expand the
// same way from their concept pattern. Matching is BM25 over node-ID
// pseudo-terms, following the paper's description of NewsLink treating
// "each KG entity in the extracted graph … as a matching keyword in the
// bag-of-words model".
type NewsLink struct {
	g      *kg.Graph
	linker *nlp.Linker
	ix     *bm25Index

	// expansion caps keep subgraphs compact, as in the original system.
	maxSeeds     int
	maxExpansion int
}

// NewNewsLink returns an unindexed NewsLink baseline over the graph.
func NewNewsLink(g *kg.Graph, linker *nlp.Linker) *NewsLink {
	return &NewsLink{
		g: g, linker: linker, ix: newBM25(),
		maxSeeds: 8, maxExpansion: 48,
	}
}

// Name implements Searcher.
func (n *NewsLink) Name() string { return "NewsLink" }

// Index implements Searcher.
func (n *NewsLink) Index(c *corpus.Corpus) error {
	for i := range c.Docs {
		ann := n.linker.Annotate(c.Docs[i].Text())
		seeds := ann.TopEntities(n.maxSeeds)
		nodes := n.Expand(seeds)
		tf := make(map[string]int, len(nodes))
		for _, v := range nodes {
			tf[nodeTerm(v)]++
		}
		// Seed entities count their true mention frequency.
		for _, v := range seeds {
			if f := ann.EntityFreq[v]; f > 1 {
				tf[nodeTerm(v)] += f - 1
			}
		}
		n.ix.add(int32(c.Docs[i].ID), tf)
	}
	return nil
}

func nodeTerm(v kg.NodeID) string { return "n" + strconv.Itoa(int(v)) }

// Expand builds the subgraph node set for a seed list: the seeds, the
// common neighbours linking any two seeds (the "hidden related nodes"
// NewsLink adds), and the seeds' direct concepts.
func (n *NewsLink) Expand(seeds []kg.NodeID) []kg.NodeID {
	set := make(map[kg.NodeID]struct{}, len(seeds)*3)
	for _, s := range seeds {
		set[s] = struct{}{}
	}
	// Hidden nodes: common instance-space neighbours of seed pairs.
	for i := 0; i < len(seeds) && len(set) < n.maxExpansion; i++ {
		neigh := make(map[kg.NodeID]struct{})
		for _, x := range n.g.InstanceNeighbors(seeds[i]) {
			neigh[x] = struct{}{}
		}
		for j := i + 1; j < len(seeds) && len(set) < n.maxExpansion; j++ {
			for _, y := range n.g.InstanceNeighbors(seeds[j]) {
				if _, ok := neigh[y]; ok {
					set[y] = struct{}{}
				}
			}
		}
	}
	// Ontology context: the seeds' direct concepts.
	for _, s := range seeds {
		for _, c := range n.g.ConceptsOf(s) {
			if len(set) >= n.maxExpansion {
				break
			}
			set[c] = struct{}{}
		}
	}
	out := make([]kg.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// querySeeds turns a concept pattern into seed entities: the best-
// connected members of each concept's extent.
func (n *NewsLink) querySeeds(concepts []kg.NodeID) []kg.NodeID {
	var seeds []kg.NodeID
	for _, c := range concepts {
		ext := n.g.ExtentClosure(c, 50)
		best := kg.InvalidNode
		bestDeg := -1
		var second kg.NodeID = kg.InvalidNode
		secondDeg := -1
		for _, v := range ext {
			d := n.g.InstanceDegree(v)
			if d > bestDeg {
				second, secondDeg = best, bestDeg
				best, bestDeg = v, d
			} else if d > secondDeg {
				second, secondDeg = v, d
			}
		}
		if best != kg.InvalidNode {
			seeds = append(seeds, best)
		}
		if second != kg.InvalidNode {
			seeds = append(seeds, second)
		}
	}
	return seeds
}

// ExpandQuery returns the expansion node set for a concept-pattern
// query (exported for the NewsLink-BERT hybrid).
func (n *NewsLink) ExpandQuery(concepts []kg.NodeID) []kg.NodeID {
	nodes := n.Expand(n.querySeeds(concepts))
	// The query concepts themselves participate (they are KG nodes).
	set := make(map[kg.NodeID]struct{}, len(nodes)+len(concepts))
	for _, v := range nodes {
		set[v] = struct{}{}
	}
	for _, c := range concepts {
		set[c] = struct{}{}
	}
	out := make([]kg.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Search implements Searcher.
func (n *NewsLink) Search(q Query, k int) []Result {
	nodes := n.ExpandQuery(q.Concepts)
	tf := make(map[string]int, len(nodes))
	for _, v := range nodes {
		tf[nodeTerm(v)]++
	}
	return n.ix.search(tf, k)
}

// ── NewsLink-BERT ───────────────────────────────────────────────────

// NewsLinkBERT expands the query with NewsLink's subgraph algorithm,
// verbalises the node names into a long text query, and retrieves with
// the dense index.
type NewsLinkBERT struct {
	nl   *NewsLink
	bert *BERT
}

// NewNewsLinkBERT returns the hybrid baseline sharing the graph and
// linker with a NewsLink instance.
func NewNewsLinkBERT(g *kg.Graph, linker *nlp.Linker) *NewsLinkBERT {
	return &NewsLinkBERT{nl: NewNewsLink(g, linker), bert: NewBERT()}
}

// Name implements Searcher.
func (h *NewsLinkBERT) Name() string { return "NewsLink-BERT" }

// Index implements Searcher.
func (h *NewsLinkBERT) Index(c *corpus.Corpus) error {
	return h.bert.Index(c)
}

// Search implements Searcher. The query vector mixes the original
// query text with the verbalised expansion subgraph. The expansion
// carries the slightly larger share: entity names are what reach
// specialist-register articles that avoid the topic's surface words —
// the advantage the paper attributes to the hybrid.
func (h *NewsLinkBERT) Search(q Query, k int) []Result {
	nodes := h.nl.ExpandQuery(q.Concepts)
	var sb strings.Builder
	for _, v := range nodes {
		sb.WriteByte(' ')
		sb.WriteString(h.nl.g.Name(v))
	}
	emb := h.bert.Embedder()
	qv := emb.EmbedText(q.Text)
	ev := emb.EmbedText(sb.String())
	mixed := make([]float32, len(qv))
	for i := range mixed {
		mixed[i] = 0.45*qv[i] + 0.55*ev[i]
	}
	return h.bert.SearchVector(mixed, k)
}
