// Package relevance implements the paper's concept–document relevance
// model (§III-A):
//
//	cdr(c, d)  = cdro(c, d) · cdrc(c, d)                      (Eq. 2)
//	cdro(c, d) = log(|V_I| / |Ψ(c)|) · max_{v∈ME(c,d)} tw(v,d) (Eq. 3)
//	conn(c, d) = Σ_{v∈CE(c,d)} S(c, v) / |CE(c, d)|            (Eq. 4)
//	cdrc(c, d) = 1 − 1 / (1 + conn(c, d))                      (Eq. 5)
//
// where ME(c, d) are the document entities matching c under the
// ontology relation, CE(c, d) are the remaining (context) entities, and
// S(c, v) = Σ_{u∈Ψ(c)} Σ_{l≤τ} β^l |paths^⟨l⟩(u, v)| is the weighted
// path count estimated by internal/rw (or computed exactly by
// internal/paths for ground truth).
//
// Matching follows the paper's broad-concept rule: a concept matches a
// document through its extent *closure* (its own instances or those of
// any `narrower` descendant), and the specificity factor falls back to
// the closure size when the direct extent is empty — the "edge concept
// among its children" substitution.
package relevance

import (
	"sync/atomic"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/paths"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/rw"
	"ncexplorer/internal/topk"
	"ncexplorer/internal/xrand"
)

// DocView supplies per-document entity statistics to the scorer. It is
// implemented by the engine's document store.
type DocView interface {
	// Entities returns the distinct linked entities of a document.
	Entities(doc int32) []kg.NodeID
	// EntityWeight returns tw(v, d) ∈ [0, 1], the textual importance of
	// entity v in document d (TF-IDF in the default pipeline). It may
	// depend on corpus-global statistics (IDF) and therefore change as
	// the corpus grows.
	EntityWeight(v kg.NodeID, doc int32) float64
	// ContextWeight ranks a document's entities for context-set
	// truncation (Eq. 4's CE cap). Unlike EntityWeight it must depend
	// only on the document itself (the default pipeline uses the
	// saturated term frequency tf/(tf+1)), never on corpus-global
	// statistics: the selected context set — and with it the expensive
	// connectivity estimate — is then a pure function of (concept,
	// document) and can be computed once and reused across index
	// generations as the corpus grows.
	ContextWeight(v kg.NodeID, doc int32) float64
}

// Options configures a Scorer. Zero values select the paper's defaults.
type Options struct {
	// Tau is the hop constraint τ (paper default 2).
	Tau int
	// Beta is the path-length damping factor β (paper default 0.5).
	Beta float64
	// Samples is the number of random walks per (concept, context
	// entity) pair (paper default 50).
	Samples int
	// MaxContext caps how many context entities are averaged in Eq. 4;
	// the highest-weighted entities are kept. 0 ⇒ 8.
	MaxContext int
	// MaxExtent caps the concept extent used for matching and walking
	// (closure truncation for enormous concepts). 0 ⇒ 4000.
	MaxExtent int
	// Exact forces exact path counting instead of sampling.
	Exact bool
	// Extents, when non-nil, is a concurrency-safe extent cache shared
	// across scorers (create with NewExtentCache), so a fleet of pooled
	// workers computes each concept's extent closure once instead of
	// once per scorer. The cache's cap then replaces MaxExtent. When
	// nil, the scorer keeps a private cache at MaxExtent.
	Extents *ExtentCache
}

// defaultMaxExtent is the extent cap a zero Options.MaxExtent selects.
const defaultMaxExtent = 4000

func (o Options) withDefaults() Options {
	if o.Tau <= 0 {
		o.Tau = 2
	}
	if o.Beta <= 0 {
		o.Beta = 0.5
	}
	if o.Samples <= 0 {
		o.Samples = 50
	}
	if o.MaxContext <= 0 {
		o.MaxContext = 8
	}
	if o.MaxExtent <= 0 {
		o.MaxExtent = defaultMaxExtent
	}
	return o
}

// Scorer computes cdr and its components.
//
// Concurrency contract (the scorer-per-worker rule): a Scorer is NOT
// safe for concurrent use — it owns random-walk scratch buffers. Create
// one per worker goroutine, or pool them (sync.Pool) and borrow for the
// duration of a computation. Two scorers over the same graph are fully
// independent and may run in parallel; the graph, DocView, and
// reach.Index they share must themselves be safe for concurrent reads
// (kg.Graph and reach.Index are; the engine's DocView is immutable
// after indexing).
//
// Values a Scorer *returns* are a different matter: Extent results are
// immutable shared slices that remain valid and safe to read after the
// scorer is released to another goroutine — see ExtentCache.Extent.
type Scorer struct {
	g    *kg.Graph
	view DocView
	opts Options

	est     *rw.Estimator
	counter *paths.Counter

	// xc is Options.Extents, or a private cache when that is nil.
	xc *ExtentCache

	// Scratch reused across calls (part of the zero-alloc warm path):
	// Split's result slices and Conn's context-truncation collector.
	matchedBuf []kg.NodeID
	contextBuf []kg.NodeID
	ctxColl    *topk.Collector[kg.NodeID]
	ctxKeep    []kg.NodeID
}

type extentEntry struct {
	list []kg.NodeID
	set  map[kg.NodeID]struct{}
}

// ExtentCache is a concurrency-safe memo of concept extent closures
// over one graph at one cap, shareable by any number of scorers and
// readable without one. It is a dense table indexed by node ID: a miss
// computes the closure and publishes it with a compare-and-swap, so
// concurrent misses on one concept may each compute it, but every
// caller gets the one stored entry. Entries are pure graph data and
// immutable once stored. Construct with NewExtentCache and hand it to
// scorers via Options.Extents.
type ExtentCache struct {
	g         *kg.Graph
	maxExtent int
	entries   []atomic.Pointer[extentEntry]
}

// NewExtentCache returns an empty extent cache over g whose extents
// are cut to maxExtent entities (maxExtent <= 0 selects the Options
// default).
func NewExtentCache(g *kg.Graph, maxExtent int) *ExtentCache {
	if maxExtent <= 0 {
		maxExtent = defaultMaxExtent
	}
	return &ExtentCache{g: g, maxExtent: maxExtent, entries: make([]atomic.Pointer[extentEntry], g.NumNodes())}
}

// Extent returns concept c's matching extent — its extent closure cut
// to the cache's cap — as both list and set, computing it on first
// use. Both are immutable shared views: callers must not modify them,
// and may retain them and share them across goroutines.
func (xc *ExtentCache) Extent(c kg.NodeID) ([]kg.NodeID, map[kg.NodeID]struct{}) {
	slot := &xc.entries[c]
	if e := slot.Load(); e != nil {
		return e.list, e.set
	}
	list := xc.g.ExtentClosure(c, 0)
	if len(list) > xc.maxExtent {
		list = list[:xc.maxExtent]
	}
	set := make(map[kg.NodeID]struct{}, len(list))
	for _, v := range list {
		set[v] = struct{}{}
	}
	e := &extentEntry{list: list, set: set}
	if !slot.CompareAndSwap(nil, e) {
		e = slot.Load() // another caller stored the same closure first
	}
	return e.list, e.set
}

// NewScorer builds a scorer. index may be nil (unguided walks); it is
// ignored when opts.Exact is set.
func NewScorer(g *kg.Graph, view DocView, index *reach.Index, opts Options) *Scorer {
	opts = opts.withDefaults()
	s := &Scorer{g: g, view: view, xc: opts.Extents}
	if s.xc == nil {
		s.xc = NewExtentCache(g, opts.MaxExtent)
	}
	opts.MaxExtent = s.xc.maxExtent
	s.opts = opts
	if opts.Exact {
		s.counter = paths.NewCounter(g)
	} else {
		s.est = rw.New(g, index, opts.Tau, opts.Beta)
	}
	return s
}

// Options returns the effective (defaulted) options.
func (s *Scorer) Options() Options { return s.opts }

// Release hands the scorer's pooled walk scratch back to the
// reachability index. Owners that build scorers for one pass (an index
// build, an ingest batch) call it when the pass ends so the next pass
// allocates nothing; the scorer stays usable.
func (s *Scorer) Release() {
	if s.est != nil {
		s.est.Release()
	}
}

// Extent returns the matching extent of c — the capped extent closure —
// as both list and set, from the scorer's extent cache (Options.Extents,
// or its private one).
func (s *Scorer) Extent(c kg.NodeID) ([]kg.NodeID, map[kg.NodeID]struct{}) {
	return s.xc.Extent(c)
}

// Matches reports whether document doc contains an entity matching c.
func (s *Scorer) Matches(c kg.NodeID, doc int32) bool {
	_, set := s.Extent(c)
	for _, v := range s.view.Entities(doc) {
		if _, ok := set[v]; ok {
			return true
		}
	}
	return false
}

// Split partitions a document's entities into ME(c, d) and CE(c, d).
// The returned slices are scorer-owned scratch: they are valid until
// the next Split call on this scorer and must not be retained.
func (s *Scorer) Split(c kg.NodeID, doc int32) (matched, context []kg.NodeID) {
	_, set := s.Extent(c)
	matched, context = s.matchedBuf[:0], s.contextBuf[:0]
	for _, v := range s.view.Entities(doc) {
		if _, ok := set[v]; ok {
			matched = append(matched, v)
		} else {
			context = append(context, v)
		}
	}
	s.matchedBuf, s.contextBuf = matched, context
	return matched, context
}

// OntologyRel computes cdro(c, d) (Eq. 3) and returns the pivot entity
// (the matched entity with the highest term weight). Returns (0,
// InvalidNode) when the concept does not match the document.
func (s *Scorer) OntologyRel(c kg.NodeID, doc int32) (float64, kg.NodeID) {
	matched, _ := s.Split(c, doc)
	if len(matched) == 0 {
		return 0, kg.InvalidNode
	}
	pivot := kg.InvalidNode
	best := -1.0
	for _, v := range matched {
		if w := s.view.EntityWeight(v, doc); w > best {
			best = w
			pivot = v
		}
	}
	return s.g.Specificity(c) * best, pivot
}

// Conn computes conn(c, d) (Eq. 4). rnd drives the sampling estimator;
// it is ignored in exact mode. Context entities beyond MaxContext are
// truncated to the highest-ranked ones under the view's ContextWeight
// (deterministic, and document-local by the DocView contract — so the
// same (concept, document) pair always walks the same context set, no
// matter how large the surrounding corpus has grown).
func (s *Scorer) Conn(c kg.NodeID, doc int32, rnd *xrand.Rand) float64 {
	_, context := s.Split(c, doc)
	if len(context) == 0 {
		return 0
	}
	if len(context) > s.opts.MaxContext {
		if s.ctxColl == nil {
			s.ctxColl = topk.New[kg.NodeID](s.opts.MaxContext)
		} else {
			s.ctxColl.Reset(s.opts.MaxContext)
		}
		for _, v := range context {
			s.ctxColl.Push(v, s.view.ContextWeight(v, doc))
		}
		s.ctxKeep = s.ctxColl.AppendValues(s.ctxKeep[:0])
		context = s.ctxKeep
	}
	ext, _ := s.Extent(c)
	if len(ext) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range context {
		sum += s.pairScore(ext, v, rnd)
	}
	return sum / float64(len(context))
}

// PairScore computes S(c, v) — the weighted path count between a
// concept extent and a single context entity — exactly or by sampling
// according to the scorer's options (rnd may be nil in exact mode).
func (s *Scorer) PairScore(ext []kg.NodeID, v kg.NodeID, rnd *xrand.Rand) float64 {
	return s.pairScore(ext, v, rnd)
}

// pairScore computes S(c, v) for one context entity.
func (s *Scorer) pairScore(ext []kg.NodeID, v kg.NodeID, rnd *xrand.Rand) float64 {
	if s.opts.Exact {
		total := 0.0
		for _, u := range ext {
			total += s.counter.WeightedCount(u, v, s.opts.Tau, s.opts.Beta)
		}
		return total
	}
	return s.est.EstimateConcept(rnd, ext, v, s.opts.Samples)
}

// ContextRel computes cdrc(c, d) (Eq. 5), normalising conn to [0, 1).
func (s *Scorer) ContextRel(c kg.NodeID, doc int32, rnd *xrand.Rand) float64 {
	return ConnToScore(s.Conn(c, doc, rnd))
}

// ConnCap returns a proven upper bound on conn(c, d) for ANY document,
// given the concept's (capped) extent size and the maximum instance
// degree of the graph:
//
//	conn(c, d) = Σ_{v∈CE} S(c, v) / |CE| ≤ max_v S(c, v)
//	S(c, v)    = Σ_{u∈Ψ(c)} Σ_{l≤τ} β^l |paths^⟨l⟩(u, v)|
//	           ≤ |Ψ(c)| · Σ_{l=1..τ} β^l Δ^l
//
// since a node has at most Δ^l distinct l-hop paths leaving it (each
// step picks one of ≤ Δ neighbours). The sampling estimator obeys the
// same bound sample-by-sample: a walk's value is β^l·Π N(u_i) with
// every branching factor N(u_i) ≤ Δ, scaled by a pool size ≤ |Ψ(c)|,
// so neither exact counting nor sampling can exceed the cap.
func ConnCap(extentSize, maxDegree, tau int, beta float64) float64 {
	cap := 0.0
	step := 1.0
	for l := 1; l <= tau; l++ {
		step *= beta * float64(maxDegree)
		cap += step
	}
	return cap * float64(extentSize)
}

// ConnToScore maps a connectivity value to the normalised context
// relevance: 1 − 1/(1+conn).
func ConnToScore(conn float64) float64 {
	if conn < 0 {
		conn = 0
	}
	return 1 - 1/(1+conn)
}

// CDR computes cdr(c, d) = cdro · cdrc (Eq. 2) and the pivot entity.
// A concept that does not match the document scores 0.
func (s *Scorer) CDR(c kg.NodeID, doc int32, rnd *xrand.Rand) (float64, kg.NodeID) {
	cdro, pivot := s.OntologyRel(c, doc)
	if cdro <= 0 {
		return 0, pivot
	}
	return cdro * s.ContextRel(c, doc, rnd), pivot
}
