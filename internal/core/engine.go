// Package core implements the NCExplorer engine: the indexing pipeline
// of Fig. 3 (NLP annotation → entity linking → concept-document
// relevance scoring) and the two OLAP-style operations of §III —
// roll-up (Definition 1: top-K documents for a concept-pattern query)
// and drill-down (Definition 2: top-K subtopic suggestions ranked by
// coverage × specificity × diversity).
//
// Index layout (see internal/snapshot for the storage model):
//
//   - the corpus lives in immutable segments behind an atomically
//     swapped snapshot; documents have dense, append-only global IDs;
//   - an entity→documents inverted index per segment gives exact
//     Definition-1 matching semantics (a document matches concept c iff
//     it contains an entity in c's extent closure);
//   - per generation, one plan per concept (plan.go) lists the
//     matching documents with their cdr scores and pivots: every
//     roll-up, drill-down and standing-query evaluation reads matches
//     and scores from the plans and from nowhere else;
//   - per document, the candidate concepts (the direct Ψ⁻¹ concepts of
//     its entities plus a configurable number of `broader` ancestor
//     levels) project the plans into the postings that drive
//     drill-down coverage;
//   - the expensive connectivity factor of cdr is stored in the plan
//     rows and sampled with a per-(concept, doc) seeded stream, so
//     values are reproducible regardless of build order, of which
//     goroutine computes them, and of how the corpus was grown (one
//     monolithic build and any sequence of ingested batches produce
//     identical values at equal content).
//
// Live ingestion (Ingest) appends a new segment and swaps in a new
// snapshot generation; queries pin one generation end-to-end, so a
// roll-up running concurrently with an ingest sees either entirely the
// old corpus or entirely the new one, never a mix. See ingest.go.
package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/nlp"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/relevance"
	"ncexplorer/internal/snapshot"
	"ncexplorer/internal/xrand"
)

// Options configures an Engine. Zero values select the paper defaults
// (τ = 2, β = 0.5, 50 samples).
type Options struct {
	// Tau, Beta, Samples parameterise the connectivity score (§III-C).
	Tau     int
	Beta    float64
	Samples int
	// Seed drives all sampling; equal seeds ⇒ identical indexes.
	Seed uint64
	// MaxConceptsPerDoc caps the candidate concepts scored per document
	// (kept by highest ontology relevance). 0 ⇒ 64.
	MaxConceptsPerDoc int
	// AncestorLevels adds this many `broader` levels above each
	// entity's direct concepts to the candidate set. 0 ⇒ 1.
	AncestorLevels int
	// Workers bounds indexing parallelism. 0 ⇒ GOMAXPROCS.
	Workers int
	// MaxSegments is the segment count above which ingested segments
	// are merged in the background. 0 ⇒ 4.
	MaxSegments int
	// Exact computes connectivity exactly instead of sampling (tests
	// and ablations).
	Exact bool
	// Now supplies the wall clock used to default a missing PublishedAt
	// on ingested articles (the seam tests inject to pin defaulted
	// timestamps). Never part of persisted engine metadata: the clock
	// influences only the timestamps stamped into documents, not how
	// anything is scored. nil ⇒ time.Now.
	Now func() time.Time
}

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
	if o.MaxConceptsPerDoc <= 0 {
		o.MaxConceptsPerDoc = 64
	}
	if o.AncestorLevels <= 0 {
		o.AncestorLevels = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 4
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Query is a concept pattern: a set of KG concepts a document must all
// match (§III-A).
type Query []kg.NodeID

// ConceptContribution explains one concept's share of a document's
// relevance: the cdr value and the pivot entity that matched.
type ConceptContribution struct {
	Concept kg.NodeID
	CDR     float64
	Pivot   kg.NodeID
}

// DocResult is one roll-up result with its explanation.
type DocResult struct {
	Doc          corpus.DocID
	Score        float64
	Contributors []ConceptContribution
}

// Subtopic is one drill-down suggestion with its score components.
type Subtopic struct {
	Concept     kg.NodeID
	Score       float64
	Coverage    float64
	Specificity float64
	Diversity   float64
	MatchedDocs int
}

// IndexStats reports the outcomes and cost breakdown of the *initial*
// IndexCorpus build (the paper's Fig. 4 analysis). Ingested batches
// are tracked separately by IngestCounters.
type IndexStats struct {
	Docs      int
	PerSource map[corpus.Source]corpus.SourceStats
	// Wall-clock nanoseconds spent in the two pipeline stages, summed
	// across documents (single-threaded equivalents).
	LinkNanos  int64
	ScoreNanos int64
}

// ConceptScore is one scored candidate concept of a document at the
// current snapshot generation: the full concept-document relevance,
// its generation-independent context factor, and the pivot entity.
type ConceptScore struct {
	Concept kg.NodeID
	CDR     float64
	Pivot   kg.NodeID
	// CDRC is the context-relevance factor cdrc(c, d) (Eq. 5). It
	// depends only on the graph and the document — never on
	// corpus-global statistics — so it is reused verbatim when the
	// snapshot is rebuilt after an ingest.
	CDRC float64
}

// cdrStreamSalt seeds the per-(concept, document) sampler streams for
// the context-relevance factor. One salt for the plan builder and the
// ingest pre-warm: whichever path computes cdrc(c, d) first computes
// THE value.
const cdrStreamSalt = 0x9e3779b97f4a7c15

// Engine is an indexed NCExplorer instance. Safe for concurrent
// queries after IndexCorpus returns, including concurrently with
// Ingest: the query path takes no global lock — all post-index
// structures hang off an atomic snapshot pointer pinned once per
// query, every score a query reads was computed into the generation's
// plans at swap time, and the engine-wide extent cache is a lock-free
// table. Results are deterministic regardless of interleaving because
// every sample stream is seeded by its (concept, document) key alone.
type Engine struct {
	g       *kg.Graph
	opts    Options
	linker  *nlp.Linker
	reachIx *reach.Index

	// maxInstDeg is Δ, the maximum instance degree of the graph —
	// the walk branching bound behind the planner's cdrc ceilings.
	maxInstDeg int

	// scratch pools the per-query scratch (collectors, dense stamp
	// arrays); it is engine-wide because its size depends only on the
	// immutable graph.
	scratch sync.Pool

	// st is the current generation's query state. Query entry points
	// load it exactly once and thread it through, so a query runs
	// against one consistent snapshot even while Ingest swaps in a new
	// one. Writers (IndexCorpus, Ingest, merge, SetRemoteStats,
	// OpenStore) serialise on ingestMu and publish with a single
	// Store.
	st atomic.Pointer[genState]

	// extents memoises concept extent closures (pure graph data),
	// shared by every snapshot and every scorer.
	extents *relevance.ExtentCache

	// Single-writer side: ingestMu serialises all snapshot producers;
	// mergeWG tracks the background merge goroutine; merging
	// deduplicates merge kicks; epoch tags externally visible cache
	// state (see CacheEpoch).
	ingestMu sync.Mutex
	mergeWG  sync.WaitGroup
	merging  atomic.Bool
	epoch    atomic.Uint64

	stats IndexStats
	ing   ingestCounters

	// windowHits and windowMisses count drill-down pages ranked from a
	// memoised window and from a computed one (see windowMemo).
	windowHits, windowMisses atomic.Int64

	// ingestHook, when set, runs after every successful Ingest swap with
	// a DeltaView over the batch's documents (see delta.go). Guarded by
	// ingestMu like every other write-side field.
	ingestHook func(*DeltaView)

	// persist tracks durable-snapshot state: counters, the optional
	// checkpoint directory, and the segment→file name cache (see
	// persist.go). Mutable fields are guarded by ingestMu except where
	// noted (the writer-side fields move under gc.writeMu).
	persist persistState

	// gc is the group-commit checkpoint writer: commits enqueue their
	// state here and the encode+fsync happen off the commit path (see
	// groupcommit.go).
	gc groupCommit

	// candPool pools the per-worker candidate-concept enumeration
	// scratch (stamp marks sized by the graph); planPool pools the
	// per-worker plan-builder scratch (stamp arrays sized by the
	// document bound and block count). Both grow monotonically.
	candPool sync.Pool
	planPool sync.Pool

	// plannedEnts lists every entity occurring as a posting key in the
	// indexed segments (entSeen marks membership) — the planner's IDF
	// table iterates this instead of re-walking every segment's posting
	// map each generation. Extended for new segments only under reuse;
	// guarded by ingestMu.
	plannedEnts []kg.NodeID
	entSeen     []bool

	// Sharded serving (see shard.go): remote carries the other shards'
	// term statistics when this engine holds one shard of a federated
	// corpus (nil for a monolithic engine); localGen counts the
	// generations produced locally (initial build = 1, +1 per local
	// batch) — the published snapshot generation is localGen plus the
	// remote batch count, so every shard numbers generations exactly
	// like a monolithic engine over the union. shardIndex/shardCount
	// describe the cluster layout; they are written once at boot
	// (IndexCorpusSharded / OpenStore), before serving starts.
	remote                 atomic.Pointer[ShardStats]
	localGen               atomic.Uint64
	shardIndex, shardCount int
}

// genState is everything a query needs from one snapshot generation:
// the raw snapshot, the concept plans, and the per-document concept
// scores projected from them. Swapping the whole bundle atomically is
// what makes invalidation free: a new generation starts from its own
// plans while in-flight queries keep reading the generation they
// pinned.
type genState struct {
	e    *Engine
	snap *snapshot.Snapshot
	// remote is the shards' statistics snap was scored under (nil for a
	// monolithic engine): the writer persists these, never the engine's
	// newer ones.
	remote *ShardStats

	// concepts holds each document's kept candidate scores at this
	// generation (the cdr postings driving drill-down coverage),
	// indexed by global doc ID. Slots fill lazily on first access
	// (docConcepts): the scores are a pure projection of the plans, so
	// deriving them per queried document instead of eagerly for the
	// whole corpus keeps the ingest commit path O(batch), and every
	// reader still sees byte-identical values. States whose plans are
	// shared verbatim (merge rebuilds, cache resets) share the slot
	// array too, so warm entries survive those swaps.
	concepts []atomic.Pointer[[]ConceptScore]

	// ents maps global doc ID to the document's entity list — the same
	// slices snap.Doc returns, resolved once per generation so the
	// drill-down hot loops never pay segment resolution per lookup.
	ents [][]kg.NodeID

	// pos holds each document's direct-extent positions (docPositions)
	// in chunks of posChunkLen documents by global doc ID. Slots fill on
	// a document's first drill-down; the lists are pure graph data over
	// the document's entities, so every later generation shares the
	// chunks (newStateShell).
	pos []*posChunk

	// plans are the generation's pruned-query plans, indexed by
	// concept node ID: sorted matching documents (the former match
	// memo, now precomputed), their cdr scores and explanation
	// payloads, and block-max score ceilings (see plan.go). planned
	// counts the concepts with non-empty plans.
	plans   []conceptPlan
	planned int

	// entIDFN is this generation's normalised per-entity IDF table
	// (idfN(v) = IDF(v)/idfMax), retained for the lazy ceiling builder;
	// ceil guards the once-per-(concept, generation) materialisation of
	// each plan's pruning blocks (ensureCeilings). Both are shared,
	// like the plans themselves, by states that carry plans over
	// verbatim.
	entIDFN []float64
	ceil    *ceilState

	// windows memoises this generation's drill-down windows (see
	// windowMemo). A merge's state shares it with the state it replaces,
	// as it shares the plans; every other new state starts with its own.
	windows *windowMemo
}

// Entities implements relevance.DocView.
func (st *genState) Entities(doc int32) []kg.NodeID {
	return st.snap.Doc(doc).Entities
}

// EntityWeight implements relevance.DocView (tw(v, d), Eq. 3): the
// saturated term frequency tf/(tf+1) damped by the generation's
// normalised corpus-global IDF (entIDFN, see buildPlans).
func (st *genState) EntityWeight(v kg.NodeID, doc int32) float64 {
	tf := st.snap.Doc(doc).EntityFreq[v]
	if tf == 0 {
		return 0
	}
	sat := float64(tf) / (float64(tf) + 1)
	return sat * st.entIDFN[v]
}

// ContextWeight implements relevance.DocView: the document-local
// saturated term frequency tf/(tf+1). Deliberately free of
// corpus-global statistics so the truncated context set of (c, d) —
// and with it the stored connectivity estimate — is identical at
// every index generation.
func (st *genState) ContextWeight(v kg.NodeID, doc int32) float64 {
	tf := st.snap.Doc(doc).EntityFreq[v]
	if tf <= 0 {
		return 0
	}
	return float64(tf) / float64(tf+1)
}

// NewEngine creates an engine over the knowledge graph.
func NewEngine(g *kg.Graph, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		g:          g,
		opts:       opts,
		linker:     nlp.NewLinker(g),
		maxInstDeg: maxInstanceDegree(g),
		extents:    relevance.NewExtentCache(g, 0),
	}
	e.scratch.New = func() any { return newQueryScratch(g.NumNodes()) }
	e.candPool.New = func() any { return &candScratch{stamp: make([]uint32, g.NumNodes())} }
	e.planPool.New = func() any { return &planScratch{} }
	e.gc.cond = sync.NewCond(&e.gc.mu)
	e.gc.waiterCh = make(chan struct{}, 1)
	if !opts.Exact {
		e.reachIx = reach.New(g, opts.Tau)
	}
	return e
}

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// Graph returns the underlying knowledge graph.
func (e *Engine) Graph() *kg.Graph { return e.g }

// state returns the current generation state (nil before IndexCorpus).
func (e *Engine) state() *genState { return e.st.Load() }

// scorerOpts builds the relevance options for this engine.
func (e *Engine) scorerOpts() relevance.Options {
	return relevance.Options{
		Tau:     e.opts.Tau,
		Beta:    e.opts.Beta,
		Samples: e.opts.Samples,
		Exact:   e.opts.Exact,
		Extents: e.extents,
	}
}

// IndexCorpus runs the full pipeline over the corpus, producing the
// base segment and the first snapshot generation. Documents must have
// dense IDs 0..n−1 (the corpus generator guarantees this). It may be
// called once per engine; grow the corpus afterwards with Ingest. It
// is IndexCorpusSharded with one shard, which leaves the engine
// unsharded.
func (e *Engine) IndexCorpus(c *corpus.Corpus) IndexStats {
	return e.IndexCorpusSharded(c, 0, 1)
}

// buildSegment runs the annotation/linking pipeline (Phase A–B) over a
// batch of articles and assembles an immutable segment based at the
// given global ID. ctx cancellation aborts between documents.
func (e *Engine) buildSegment(ctx context.Context, articles []corpus.Document, base int32) (*snapshot.Segment, map[corpus.Source]corpus.SourceStats, int64, error) {
	n := len(articles)
	anns := make([]*nlp.Annotation, n)
	linkNanos := make([]int64, n)

	// Default missing publication times to the ingest wall clock — one
	// reading per batch, so a batch's defaulted documents share a
	// timestamp — and count them (surfaced as docs_defaulted_time). A
	// zero PublishedAt must never reach the index: it would land the
	// document in a 1970 bucket and poison segment time bounds.
	var defaulted int64
	var now int64
	for i := range articles {
		if articles[i].PublishedAt == 0 {
			if now == 0 {
				now = e.opts.Now().Unix()
			}
			articles[i].PublishedAt = now
			defaulted++
		}
	}
	if defaulted > 0 {
		e.ing.defaultedTime.Add(defaulted)
	}

	// Phase A — NLP annotation + entity linking (parallel; the paper's
	// dominant indexing cost). Workers stop claiming documents once ctx
	// is cancelled.
	e.parallel(n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		start := time.Now()
		anns[i] = e.linker.Annotate(articles[i].Text())
		linkNanos[i] = time.Since(start).Nanoseconds()
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}

	// Phase B — per-document records (entities, raw term frequencies,
	// candidate concepts) in parallel: each document's record depends
	// only on its own annotation. The per-source mention stats and the
	// link-time total fold afterwards in document order, so the
	// aggregates are deterministic regardless of worker interleaving.
	docs := make([]snapshot.DocRecord, n)
	scratches := make([]*candScratch, e.opts.Workers)
	e.parallelWorker(n, func(worker, i int) {
		if ctx.Err() != nil {
			return
		}
		cs := scratches[worker]
		if cs == nil {
			cs = e.candPool.Get().(*candScratch)
			scratches[worker] = cs
		}
		ann := anns[i]
		ents := ann.Entities()
		docs[i] = snapshot.DocRecord{
			Source:      articles[i].Source,
			Entities:    ents,
			EntityFreq:  ann.EntityFreq,
			Candidates:  e.candidateConcepts(ents, cs),
			PublishedAt: articles[i].PublishedAt,
		}
	})
	for _, cs := range scratches {
		if cs != nil {
			e.candPool.Put(cs)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	perSource := make(map[corpus.Source]corpus.SourceStats)
	var totalLink int64
	for i := 0; i < n; i++ {
		ann := anns[i]
		ss := perSource[articles[i].Source]
		ss.Source = articles[i].Source
		ss.Articles++
		ss.TotalMentions += ann.TotalMentions()
		ss.LinkedMentions += len(ann.Mentions)
		perSource[articles[i].Source] = ss
		totalLink += linkNanos[i]
	}
	return snapshot.BuildSegment(base, docs, articles), perSource, totalLink, nil
}

// candScratch is the pooled per-worker scratch for candidateConcepts:
// stamp marks sized by the graph (reset by bumping gen, like
// queryScratch) and a reusable accumulation buffer.
type candScratch struct {
	stamp []uint32
	gen   uint32
	buf   []kg.NodeID
}

// candidateConcepts enumerates a document's candidate subtopic
// concepts: the direct Ψ⁻¹ concepts of its entities plus
// AncestorLevels of `broader` parents. Pure graph data — the set is
// the same at every generation; only the scores change. The returned
// slice is freshly allocated (it outlives the scratch inside the
// document's record); dedup marks and accumulation reuse cs.
func (e *Engine) candidateConcepts(ents []kg.NodeID, cs *candScratch) []kg.NodeID {
	cs.gen++
	if cs.gen == 0 {
		clear(cs.stamp)
		cs.gen = 1
	}
	buf := cs.buf[:0]
	add := func(c kg.NodeID) {
		if cs.stamp[c] != cs.gen {
			cs.stamp[c] = cs.gen
			buf = append(buf, c)
		}
	}
	for _, v := range ents {
		for _, c := range e.g.ConceptsOf(v) {
			add(c)
			for _, anc := range e.g.AncestorsWithin(c, e.opts.AncestorLevels) {
				add(anc)
			}
		}
	}
	cs.buf = buf
	if len(buf) == 0 {
		return nil
	}
	return snapshot.SortedCandidates(append([]kg.NodeID(nil), buf...))
}

// localDocs lists the snapshot's local global document IDs, ascending.
// For a monolithic snapshot this is just 0..NumDocs−1; a shard's ID
// space has gaps, so dense loops over documents iterate this list.
func localDocs(snap *snapshot.Snapshot) []int32 {
	out := make([]int32, 0, snap.NumDocs())
	for _, seg := range snap.Segments {
		for i := range seg.Docs {
			out = append(out, seg.Base+int32(i))
		}
	}
	return out
}

// buildState derives a complete generation state over the given
// segments: the concept plans and per-document concept scores (Phase
// C). prev, when non-nil and covering a segment-pointer prefix of
// segs, lets the planner reuse the generation-independent plan
// skeletons — connectivity factors included — of untouched segments
// (see buildPlans), so only new documents pay for random walks: the
// heart of cheap snapshot rebuilds after an ingest. known carries the
// connectivity factors already computed for the segments the build
// scans — all of segs without prev, the ones appended after prev's
// with it: known[i] is the i-th scanned segment's key-sorted run (the
// ingest pre-warm's values, or an opened segment's conn companion),
// and a missing or nil run means walk. Returns the state and the
// summed per-document scoring nanoseconds.
func (e *Engine) buildState(gen uint64, segs []*snapshot.Segment, prev *genState, known [][]connPair) (*genState, int64) {
	st := e.newStateShell(gen, segs, prev)
	st.concepts = make([]atomic.Pointer[[]ConceptScore], st.snap.DocBound())

	workerScorers := make([]*relevance.Scorer, e.opts.Workers)
	for w := range workerScorers {
		workerScorers[w] = relevance.NewScorer(e.g, st, e.reachIx, e.scorerOpts())
		defer workerScorers[w].Release()
	}
	total := e.buildPlans(st, workerScorers, prev, known)
	if prev == nil {
		// Seed build / snapshot open: fill the per-document score view
		// eagerly so the first queries after boot find it warm, and so
		// IndexStats reports the real scoring cost. Rebuilds after an
		// ingest skip this — the slots fill lazily on first access
		// (docConcepts), keeping the commit path O(batch).
		locals := localDocs(st.snap)
		selBufs := make([][]candSel, e.opts.Workers)
		start := time.Now()
		e.parallelWorker(len(locals), func(worker, i int) {
			d := locals[i]
			out := st.deriveDocScores(st.buildCandRefs(d), &selBufs[worker])
			st.concepts[d].Store(&out)
		})
		total += time.Since(start).Nanoseconds()
	}
	return st, total
}

// newStateShell allocates a genState without plans over the snapshot
// of segs at generation gen, assembled for the engine's sharding mode:
// strictly contiguous for a monolithic engine, gap-tolerant with the
// remote entity statistics folded in for a shard. The state records
// those statistics, so a checkpoint of it persists the statistics it
// was scored under. ingestMu held.
//
// prev, when non-nil, donates its per-document entity table and
// position chunks: both are generation-independent (a document's
// entity list never changes once ingested), so a rebuild over the same
// document range shares the table outright and a growing range copies
// the prefix and resolves only the new segments; the position chunks
// are shared by pointer and only chunks past prev's get allocated.
func (e *Engine) newStateShell(gen uint64, segs []*snapshot.Segment, prev *genState) *genState {
	rs := e.remote.Load()
	var snap *snapshot.Snapshot
	if rs == nil {
		snap = snapshot.New(gen, segs)
	} else {
		snap = snapshot.NewSharded(gen, segs, rs.Docs, rs.DF)
	}
	st := &genState{e: e, snap: snap, remote: rs, windows: &windowMemo{}}
	bound := snap.DocBound()
	prevBound := 0
	if prev != nil {
		prevBound = len(prev.ents)
	}
	chunks := (bound + posChunkLen - 1) / posChunkLen
	if prev != nil && prevBound <= bound {
		st.pos = append(make([]*posChunk, 0, chunks), prev.pos...)
	}
	for len(st.pos) < chunks {
		st.pos = append(st.pos, new(posChunk))
	}
	switch {
	case prev != nil && prevBound == bound:
		st.ents = prev.ents
	default:
		st.ents = make([][]kg.NodeID, bound)
		if prev != nil && prevBound < bound {
			copy(st.ents, prev.ents)
		} else {
			prevBound = 0
		}
		for _, seg := range snap.Segments {
			if int(seg.Base)+seg.Len() <= prevBound {
				continue
			}
			for i := range seg.Docs {
				st.ents[seg.Base+int32(i)] = seg.Docs[i].Entities
			}
		}
	}
	return st
}

// planRef locates one matching candidate of a document: the concept
// and the document's row index in that concept's plan at one
// generation.
type planRef struct {
	c   kg.NodeID
	idx int32
}

// buildCandRefs resolves a document's candidate list against this
// generation's plans; every derivation of the document's scores
// (deriveDocScores) resolves afresh. A candidate matches the document
// exactly when it appears in the concept's plan. A document with no
// matching candidate has no refs (nil).
func (st *genState) buildCandRefs(doc int32) []planRef {
	rec := st.snap.Doc(doc)
	var refs []planRef
	for _, c := range rec.Candidates {
		if idx := st.plan(c).planIdx(doc); idx >= 0 {
			refs = append(refs, planRef{c: c, idx: int32(idx)})
		}
	}
	return refs
}

// docConcepts returns document d's kept candidate scores at this
// generation, deriving and caching them on first access. The derived
// slice is a pure projection of the plans, so concurrent first
// accesses compute identical values and any winner of the slot store
// is correct. Documents this snapshot does not hold locally (a
// shard's ID-space gaps) return nil, as the eager path never filled
// them.
func (st *genState) docConcepts(d int32) []ConceptScore {
	if int(d) >= len(st.concepts) {
		return nil
	}
	slot := &st.concepts[d]
	if p := slot.Load(); p != nil {
		return *p
	}
	if !st.snap.HasDoc(d) {
		return nil
	}
	var selBuf []candSel
	out := st.deriveDocScores(st.buildCandRefs(d), &selBuf)
	slot.Store(&out)
	return out
}

// posChunkLen is how many documents one position chunk covers.
const posChunkLen = 1024

// posChunk holds the lazily filled position lists of posChunkLen
// consecutive global doc IDs (see docPositions).
type posChunk [posChunkLen]atomic.Pointer[[]extentPos]

// extentPos names an entity by its position in a concept's direct
// extent: g.Extent(c)[pos]. Extents are sorted, so ascending positions
// are ascending entity IDs.
type extentPos struct {
	c   kg.NodeID
	pos int32
}

// docPositions returns document d's direct-extent positions: for every
// entity v of d and every concept c ∈ ConceptsOf(v), v's position in
// g.Extent(c), sorted by concept, then position. The list depends only
// on the graph and d's entity list, so it is computed on d's first
// drill-down and kept for every later generation; concurrent first
// accesses compute identical lists and any winner of the slot store is
// correct.
func (st *genState) docPositions(d int32) []extentPos {
	slot := &st.pos[d/posChunkLen][d%posChunkLen]
	if p := slot.Load(); p != nil {
		return *p
	}
	g, ents := st.e.g, st.ents[d]
	n := 0
	for _, v := range ents {
		n += len(g.ConceptsOf(v))
	}
	out := make([]extentPos, 0, n)
	for _, v := range ents {
		for _, c := range g.ConceptsOf(v) {
			i, _ := slices.BinarySearch(g.Extent(c), v)
			out = append(out, extentPos{c: c, pos: int32(i)})
		}
	}
	slices.SortFunc(out, func(a, b extentPos) int {
		if a.c != b.c {
			return int(a.c) - int(b.c)
		}
		return int(a.pos) - int(b.pos)
	})
	slot.Store(&out)
	return out
}

// candSel is the per-worker selection scratch row for deriveDocScores'
// capped path.
type candSel struct {
	c    kg.NodeID
	idx  int32
	cdro float64
}

// deriveDocScores computes one document's kept candidate scores at
// this generation from its resolved plan refs: rank by the ontology
// relevance, keep the cap, attach the precomputed context factor.
// Identical output to scoring on demand — the plan carries the same
// cdro/pivot/cdrc values the scorer would produce. The refs arrive in
// candidate (concept-ascending) order, so when the cap doesn't bite
// the kept set is already in its final deterministic order and no
// sorting happens at all; when it does, a quickselect keeps the top
// cap under the exact (cdro desc, concept asc) total order the old
// full sort used, then restores concept order — same set, same order,
// byte-identical downstream.
func (st *genState) deriveDocScores(refs []planRef, selBuf *[]candSel) []ConceptScore {
	maxKeep := st.e.opts.MaxConceptsPerDoc
	if len(refs) <= maxKeep {
		out := make([]ConceptScore, 0, len(refs))
		for _, r := range refs {
			p := &st.plans[r.c]
			if p.ont[r.idx] > 0 {
				out = append(out, ConceptScore{
					Concept: r.c, CDR: p.scores[r.idx], CDRC: p.cdrc[r.idx], Pivot: p.pivots[r.idx],
				})
			}
		}
		return out
	}
	scored := (*selBuf)[:0]
	for _, r := range refs {
		p := &st.plans[r.c]
		if cdro := p.ont[r.idx]; cdro > 0 {
			scored = append(scored, candSel{c: r.c, idx: r.idx, cdro: cdro})
		}
	}
	*selBuf = scored
	if len(scored) > maxKeep {
		selectTopSel(scored, maxKeep)
		scored = scored[:maxKeep]
		slices.SortFunc(scored, func(a, b candSel) int {
			return int(a.c) - int(b.c)
		})
	}
	out := make([]ConceptScore, 0, len(scored))
	for _, cd := range scored {
		p := &st.plans[cd.c]
		out = append(out, ConceptScore{
			Concept: cd.c, CDR: p.scores[cd.idx], CDRC: p.cdrc[cd.idx], Pivot: p.pivots[cd.idx],
		})
	}
	return out
}

// selLess is the selection order of the capped path: highest ontology
// relevance first, concept ID ascending on ties — a total order
// (concept IDs are unique per document), so the kept set is exactly
// the old full sort's prefix.
func selLess(a, b candSel) bool {
	if a.cdro != b.cdro {
		return a.cdro > b.cdro
	}
	return a.c < b.c
}

// selectTopSel partially orders s so s[:k] holds the top k under
// selLess (order within the prefix unspecified; callers re-sort).
func selectTopSel(s []candSel, k int) {
	lo, hi := 0, len(s)
	for hi-lo > 1 {
		pivot := s[(lo+hi)/2]
		i, j := lo, hi-1
		for i <= j {
			for selLess(s[i], pivot) {
				i++
			}
			for selLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// walkConn estimates the context-relevance factor cdrc(c, d) with the
// caller's scorer. The sampler is seeded by the (concept, doc) key
// alone, so the value is independent of goroutine interleaving, of
// the generation that computes it, and of whether the ingest pre-warm
// or the plan builder runs the walk.
func (e *Engine) walkConn(s *relevance.Scorer, c kg.NodeID, doc int32) float64 {
	return s.ContextRel(c, doc, xrand.Stream(e.opts.Seed^cdrStreamSalt, cdrKey(c, doc)))
}

func cdrKey(c kg.NodeID, doc int32) uint64 {
	return uint64(uint32(c))<<32 | uint64(uint32(doc))
}

// parallel runs fn(i) for i in [0, n) on opts.Workers goroutines.
func (e *Engine) parallel(n int, fn func(i int)) {
	e.parallelWorker(n, func(_, i int) { fn(i) })
}

func (e *Engine) parallelWorker(n int, fn func(worker, i int)) {
	workers := e.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// Stats returns the initial indexing statistics (valid after
// IndexCorpus; ingested batches are reported by IngestCounters).
func (e *Engine) Stats() IndexStats { return e.stats }

// Generation returns the current snapshot generation: 1 after
// IndexCorpus, +1 per ingested batch (0 before indexing). Segment
// merges do not change it — they reorganise storage, not content.
func (e *Engine) Generation() uint64 {
	if st := e.state(); st != nil {
		return st.snap.Generation
	}
	return 0
}

// CacheEpoch tags the externally observable query-cache state: it
// advances on every event after which an external response cache must
// stop serving retained bodies — each snapshot swap (new content) and
// each ResetQueryCaches call. Serving layers fold it into their cache
// keys, making old entries unreachable without a stop-the-world flush.
func (e *Engine) CacheEpoch() uint64 { return e.epoch.Load() }

// Entities returns a document's distinct linked entities (current
// generation; entity lists are append-only and never change once a
// document is ingested).
func (e *Engine) Entities(doc int32) []kg.NodeID {
	return e.state().Entities(doc)
}

// EntityWeight returns tw(v, d) under the current generation's
// corpus-global term statistics.
func (e *Engine) EntityWeight(v kg.NodeID, doc int32) float64 {
	return e.state().EntityWeight(v, doc)
}

// ContextWeight returns the document-local context-ranking weight of
// an entity. Together with Entities and EntityWeight this lets an
// Engine serve as a relevance.DocView for ad-hoc scorers (the
// experiment harness builds exact-mode scorers this way); such a
// scorer reads whatever generation is current at each call, unlike
// the engine's own query path, which pins one.
func (e *Engine) ContextWeight(v kg.NodeID, doc int32) float64 {
	return e.state().ContextWeight(v, doc)
}

// DocConcepts returns a document's candidate concepts with their cdr
// scores at the current generation (the per-document postings). The
// slice must not be modified.
func (e *Engine) DocConcepts(doc corpus.DocID) []ConceptScore {
	return e.state().docConcepts(int32(doc))
}

// ResetQueryCaches advances the cache epoch (see CacheEpoch), so
// response caches layered above the engine stop serving retained
// bodies, and drops the current generation's drill-down windows, so
// the next page of every listing recomputes its window. Plans,
// per-document scores and extents stay: they are generation state or
// pure graph data, and no query's answer depends on whether they are
// warm.
func (e *Engine) ResetQueryCaches() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.epoch.Add(1)
	if st := e.state(); st != nil {
		st.windows.reset()
	}
}

// NumDocs returns the number of indexed documents at the current
// generation.
func (e *Engine) NumDocs() int { return e.state().snap.NumDocs() }

// Doc returns the display document (title, body, source) of an
// indexed or ingested article. The returned value is immutable.
func (e *Engine) Doc(doc corpus.DocID) *corpus.Document {
	return e.state().snap.Article(int32(doc))
}
