package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"time"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/relevance"
	"ncexplorer/internal/snapshot"
	"ncexplorer/internal/topk"
)

// The query planner: at swap time (build, ingest, merge-carry, cache
// reset) the engine eagerly scores every MATCHING (concept, document)
// pair — not just the per-document kept candidates — into per-concept
// plans, and computes a block-max score ceiling per fixed window of
// the document-ID space. A roll-up then never touches the relevance
// machinery: it walks one plan's blocks in ceiling order, keeps a
// top-k threshold, and skips whole blocks that provably cannot beat
// it (WAND-style upper-bound pruning, cf. block-max indexes in text
// search).
//
// Why eager scoring is affordable: matching pairs exceed the candidate
// pairs the engine always scored by only a small factor (~1.3× at the
// default experiment scale — candidates are the direct concepts of
// document entities plus ancestor levels, and most matching concepts
// ARE candidates), and the expensive connectivity factor lives in the
// plan rows themselves: a rebuild aliases the previous generation's
// cdrc arrays and walks only the new documents' pairs (or takes them
// from the ingest pre-warm or an opened store's conn companions), so
// pairs are walked once per corpus lifetime no matter how many
// generations rebuild plans.
//
// Ceiling construction (see DESIGN.md §9): for concept c and block w,
//
//	ceil(c, w) = Spec(c) · ubOnt(c, w) · cdrcCap(c)
//	ubOnt(c, w) = max_{v∈ext(c)} idfN(v) · sat(maxTF(v, w))
//	cdrcCap(c)  = ConnToScore(ConnCap(|ext(c)|, Δ, τ, β))
//
// where maxTF comes from the persisted per-segment block-max tables
// (snapshot.MaxTF), idfN(v) = IDF(v)/idfMax is this generation's
// normalised inverse document frequency, and Δ is the graph's maximum
// instance degree. Every factor dominates its counterpart in
// cdr = (Spec·max tw)·cdrc with the same floating-point operations
// (sat ≤ satMax exactly, and fp multiplication is monotone), so
// ceil(c, w) ≥ cdr(c, d) for every d in the block. As belt-and-braces
// against accumulation corner cases in the sampled conn estimate, the
// builder additionally raises a ceiling to the block's realised
// maximum score — by construction a skip can then never hide a
// retained result.

// planBlock is one scoring block of a concept plan: the contiguous
// index range [lo, hi) of plan.docs whose documents fall into one
// global-ID window, plus the score ceiling for that window and the
// exact publication-time bounds of the block's matching documents
// (inclusive) — a block disjoint from a query's time range is skipped
// before any score work, which is sound because no document in it can
// pass the per-document time predicate.
type planBlock struct {
	lo, hi     int32
	ceil       float64
	minT, maxT int64
}

// conceptPlan holds everything a query needs about one concept,
// parallel-indexed: the sorted matching documents (Definition 1
// semantics, identical to the former match memo), their full cdr
// scores and explanation payloads, and the pruning blocks. Immutable
// after build; shared by every query pinned to the generation.
type conceptPlan struct {
	docs   []int32
	scores []float64 // cdr(c, d)
	ont    []float64 // cdro(c, d): candidate-ranking input for drill-down postings
	cdrc   []float64 // the connectivity factor cdrc(c, d) (0 when cdro = 0: never walked)
	pivots []kg.NodeID
	blocks []planBlock
	// ceilOrder lists block indices by (ceil desc, position asc): the
	// visit order that raises the top-k threshold fastest.
	ceilOrder []int32
	// The match skeleton, CSR-packed: for document j, rows
	// [matchOff[j], matchOff[j+1]) list the document's matched extent
	// entities in first-mention order with their saturated term
	// frequencies tf/(tf+1). Everything generation-DEPENDENT about a
	// plan (ont, pivots, scores, ceilings) is a cheap replay over this
	// skeleton with the generation's normalised IDF — and the skeleton
	// itself is generation-INDEPENDENT, so a rebuild after an ingest
	// copies it for untouched segments instead of re-walking postings
	// and term statistics (see buildPlans).
	matchOff  []int32
	matchEnts []kg.NodeID
	matchSats []float64
}

// plan returns the concept's plan (empty plan: matches nothing).
func (st *genState) plan(c kg.NodeID) *conceptPlan {
	if c < 0 || int(c) >= len(st.plans) {
		return &emptyPlan
	}
	return &st.plans[c]
}

var emptyPlan conceptPlan

// planIdx returns the index of doc in p.docs, or -1.
func (p *conceptPlan) planIdx(doc int32) int {
	if i := p.from(doc); i < len(p.docs) && p.docs[i] == doc {
		return i
	}
	return -1
}

// from returns the index of the first document ≥ doc in p.docs
// (len(p.docs) when there is none).
func (p *conceptPlan) from(doc int32) int {
	lo, hi := 0, len(p.docs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.docs[mid] < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// maxInstanceDegree scans the instance space once for Δ, the walk
// branching bound behind cdrcCap.
func maxInstanceDegree(g *kg.Graph) int {
	max := 0
	g.Instances(func(v kg.NodeID) bool {
		if d := g.InstanceDegree(v); d > max {
			max = d
		}
		return true
	})
	return max
}

// planScratch is the pooled per-worker scratch of the plan builder:
// dense stamp arrays over documents / entities / blocks (reset by
// bumping gen) plus a reusable new-document accumulation buffer. The
// arrays grow monotonically with the corpus; pooled engine-wide so a
// steady stream of ingests stops allocating them per generation.
type planScratch struct {
	docStamp []uint32
	extStamp []uint32
	blockAcc []float64
	blockGen []uint32
	gen      uint32
	newDocs  []int32
}

// ensure grows the stamp arrays to the needed sizes. Grown tails are
// zero, which can never equal a live gen (gen wraps are reset below),
// so existing stamps stay correct.
func (sc *planScratch) ensure(docBound, numNodes, numBlocks int) {
	grow32 := func(s []uint32, n int) []uint32 {
		if len(s) >= n {
			return s
		}
		out := make([]uint32, n)
		copy(out, s)
		return out
	}
	sc.docStamp = grow32(sc.docStamp, docBound)
	sc.extStamp = grow32(sc.extStamp, numNodes)
	sc.blockGen = grow32(sc.blockGen, numBlocks+1)
	if len(sc.blockAcc) < numBlocks+1 {
		acc := make([]float64, numBlocks+1)
		copy(acc, sc.blockAcc)
		sc.blockAcc = acc
	}
}

// bump advances the stamp generation, clearing the arrays on wrap so a
// stale stamp can never alias a live one.
func (sc *planScratch) bump() {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.docStamp)
		clear(sc.extStamp)
		clear(sc.blockGen)
		sc.gen = 1
	}
}

// matchableConcepts enumerates a superset of the concepts a document of
// segs can match: every entity's direct concepts and their whole
// broader closure, deterministically (documents ascending, entities in
// first-mention order). A concept matches a document iff a document
// entity lies in its capped extent closure, and every concept whose
// closure holds v is a direct concept of v or one of its ancestors, so
// nothing outside the set can match (the cap only shrinks matches).
// seen marks the returned concepts. buildPlans gathers every concept
// listed here and prewarmConn walks exactly their matching pairs, so
// the pre-warm covers every pair the commit-time replay would walk.
func (e *Engine) matchableConcepts(segs []*snapshot.Segment) (concepts []kg.NodeID, seen []bool) {
	numNodes := e.g.NumNodes()
	entSeen := make([]bool, numNodes)
	seen = make([]bool, numNodes)
	var stack []kg.NodeID
	mark := func(c kg.NodeID) {
		if !seen[c] {
			seen[c] = true
			concepts = append(concepts, c)
			stack = append(stack, c)
		}
	}
	for _, seg := range segs {
		for di := range seg.Docs {
			for _, v := range seg.Docs[di].Entities {
				if entSeen[v] {
					continue
				}
				entSeen[v] = true
				for _, c0 := range e.g.ConceptsOf(v) {
					mark(c0)
				}
				for len(stack) > 0 {
					c := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, b := range e.g.Broader(c) {
						mark(b)
					}
				}
			}
		}
	}
	return concepts, seen
}

// buildPlans derives the generation's concept plans: it gathers every
// concept matchableConcepts lists via the capped extent, which
// reproduces Definition 1 matching exactly.
//
// Incremental rebuilds: when prev is the previous generation's state
// and its segments are a pointer-prefix of st's (the shape every
// Ingest produces — old segments are immutable, one segment is
// appended), each concept's match skeleton (docs, matched entities,
// saturated term frequencies, connectivity factors) is EXTENDED IN
// PLACE: the new plan aliases the previous arrays and appends the new
// segments' rows. That is safe under the single-writer invariant —
// exactly one state derivation runs at a time (ingestMu), each prev is
// used as a base at most once (state chains are linear; merges and
// cache resets carry plan slices verbatim, preserving the chain), and
// readers pinned to an older generation only index their own prefix,
// which an append never moves or mutates. The generation-dependent
// arrays (scores, ont, pivots, ceilings) are freshly allocated and
// replayed over the skeleton with the exact floating-point operations
// a from-scratch build performs — sat·(IDF/idfMax) with this
// generation's global counts, max by strict >, Spec·best — so both
// paths are bit-identical (the equivalence tests pin this).
//
// A new row with a positive ontology factor takes its connectivity
// factor from known — parallel to the scanned segments, the key-sorted
// run of its segment (see buildState) — and walks it inline on a miss; every walk run here is
// counted in IngestCounters.ConnWalks. Returns the summed per-concept
// scoring nanoseconds.
func (e *Engine) buildPlans(st *genState, scorers []*relevance.Scorer, prev *genState, known [][]connPair) int64 {
	numNodes := e.g.NumNodes()
	st.plans = make([]conceptPlan, numNodes)
	snap := st.snap

	// Reuse applies when prev's segment list is a pointer-prefix of the
	// new one: those segments are untouched, so per-document skeleton
	// rows keyed by their global IDs are still exact. Merges replace
	// segment pointers and therefore rebuild from scratch (they carry
	// plans over verbatim instead, see mergeSegments).
	reuse := prev != nil && prev.plans != nil && len(prev.snap.Segments) <= len(snap.Segments)
	if reuse {
		for i, seg := range prev.snap.Segments {
			if snap.Segments[i] != seg {
				reuse = false
				break
			}
		}
	}
	newSegs := snap.Segments
	if reuse {
		newSegs = snap.Segments[len(prev.snap.Segments):]
	}
	// runs[i] holds newSegs[i]'s known connectivity factors (nil: none).
	runs := make([][]connPair, len(newSegs))
	copy(runs, known)

	// Phase 1: enumerate the matching-concept superset from the segments
	// being (re)scanned; under reuse, concepts whose previous plan
	// matched something are appended afterwards. A concept absent from
	// both sets matches no document: the previous gather was exact over
	// the old segments, and matchableConcepts covers every concept a new
	// entity can reach.
	concepts, conceptSeen := e.matchableConcepts(newSegs)
	if reuse {
		for c := range prev.plans {
			if len(prev.plans[c].docs) > 0 && !conceptSeen[c] {
				conceptSeen[c] = true
				concepts = append(concepts, kg.NodeID(c))
			}
		}
	}
	st.planned = len(concepts)

	// Phase 2: per-entity normalised IDF, idfN(v) = IDF(v)/idfMax, with
	// the exact floating-point operations of textindex TFIDF so the
	// ceiling's ubOnt dominates every term weight op-for-op. The entity
	// set is every posting key of ALL segments — the replay needs every
	// local entity's idfN — maintained incrementally on the engine
	// (extended from the rescanned segments only) instead of re-walking
	// every segment's posting map each generation.
	if !reuse {
		e.plannedEnts, e.entSeen = nil, nil
	}
	if e.entSeen == nil {
		e.entSeen = make([]bool, numNodes)
	}
	for _, seg := range newSegs {
		for v := range seg.EntDocs {
			if !e.entSeen[v] {
				e.entSeen[v] = true
				e.plannedEnts = append(e.plannedEnts, v)
			}
		}
	}
	idfMax := math.Log(1 + (float64(snap.Text.NumDocs())+0.5)/0.5)
	entIDFN := make([]float64, numNodes)
	if idfMax != 0 {
		for _, v := range e.plannedEnts {
			entIDFN[v] = snap.Text.IDF(snapshot.EntTerm(v)) / idfMax
		}
	}
	// Retained for the lazy ceiling builder (ensureCeilings), which
	// replays this generation's normalised IDF on first query use.
	st.entIDFN = entIDFN
	st.ceil = &ceilState{}

	// Phase 3: per-concept gather + score + ceilings, in parallel.
	numBlocks := snap.NumBlocks()
	docBound := snap.DocBound()
	scratches := make([]*planScratch, len(scorers))
	for w := range scratches {
		scratches[w] = e.planPool.Get().(*planScratch)
		scratches[w].ensure(docBound, numNodes, numBlocks)
	}
	defer func() {
		for _, sc := range scratches {
			e.planPool.Put(sc)
		}
	}()
	nanos := make([]int64, len(scorers))
	walks := make([]int64, len(scorers))
	e.parallelWorker(len(concepts), func(worker, i int) {
		start := time.Now()
		c := concepts[i]
		s := scorers[worker]
		sc := scratches[worker]
		sc.bump()
		ext := e.extent(c)
		for _, v := range ext {
			sc.extStamp[v] = sc.gen
		}

		var pp *conceptPlan
		nOld := 0
		if reuse {
			pp = &prev.plans[c]
			nOld = len(pp.docs)
		}

		// Matched documents: the previous skeleton's list verbatim, plus
		// the union of the capped extent's postings over the (re)scanned
		// segments. New global IDs all exceed old ones (bases ascend), so
		// the concatenation stays sorted.
		newDocs := sc.newDocs[:0]
		for _, v := range ext {
			for _, seg := range newSegs {
				for _, d := range seg.EntDocs[v] {
					if sc.docStamp[d] != sc.gen {
						sc.docStamp[d] = sc.gen
						newDocs = append(newDocs, d)
					}
				}
			}
		}
		sc.newDocs = newDocs
		n := nOld + len(newDocs)
		if n == 0 {
			nanos[worker] += time.Since(start).Nanoseconds()
			return
		}
		slices.Sort(newDocs)

		p := &st.plans[c]
		// Skeleton: alias the previous arrays and append rows for the
		// new documents only (see the invariant in the function comment;
		// append copies newDocs' values, so the scratch buffer is never
		// retained). A from-scratch concept starts fresh.
		if nOld > 0 {
			p.docs = append(pp.docs, newDocs...)
			p.cdrc = pp.cdrc
			p.matchOff = pp.matchOff
			p.matchEnts = pp.matchEnts
			p.matchSats = pp.matchSats
		} else {
			p.docs = append(make([]int32, 0, n), newDocs...)
			p.matchOff = append(make([]int32, 0, n+1), 0)
		}
		for _, d := range newDocs {
			rec := snap.Doc(d)
			for _, v := range rec.Entities {
				if sc.extStamp[v] == sc.gen {
					tf := rec.EntityFreq[v]
					p.matchEnts = append(p.matchEnts, v)
					p.matchSats = append(p.matchSats, float64(tf)/(float64(tf)+1))
				}
			}
			p.matchOff = append(p.matchOff, int32(len(p.matchEnts)))
		}
		p.scores = make([]float64, n)
		p.ont = make([]float64, n)
		p.pivots = make([]kg.NodeID, n)

		// Replay: cdro(c, d) = Spec(c) · max_v sat(v, d)·idfN(v) over the
		// matched entities, pivot by first strict maximum — the identical
		// arithmetic and comparison order of relevance.OntologyRel. The
		// connectivity factor is generation-independent: aliased for old
		// rows, looked up in the document's segment run (or walked) and
		// appended for new ones. Whether cdro > 0 is itself
		// generation-independent (Spec and tf do not change, and idfN is
		// always positive), so aliased cdrc values cover exactly the rows
		// a fresh build would walk. New documents ascend, and so do the
		// segments, so one cursor finds each document's run.
		spec := e.g.Specificity(c)
		si := 0
		for j := 0; j < n; j++ {
			best := -1.0
			pivot := kg.InvalidNode
			for m := p.matchOff[j]; m < p.matchOff[j+1]; m++ {
				if w := p.matchSats[m] * entIDFN[p.matchEnts[m]]; w > best {
					best = w
					pivot = p.matchEnts[m]
				}
			}
			cdro := spec * best
			p.ont[j] = cdro
			p.pivots[j] = pivot
			if j >= nOld {
				cc := 0.0
				if cdro > 0 {
					d := p.docs[j]
					for si+1 < len(newSegs) && d >= newSegs[si+1].Base {
						si++
					}
					var hit bool
					if cc, hit = lookupConn(runs[si], cdrKey(c, d)); !hit {
						cc = e.walkConn(s, c, d)
						walks[worker]++
					}
				}
				p.cdrc = append(p.cdrc, cc)
			}
			if cdro > 0 {
				p.scores[j] = cdro * p.cdrc[j]
			}
		}

		nanos[worker] += time.Since(start).Nanoseconds()
	})
	var total, walked int64
	for w := range nanos {
		total += nanos[w]
		walked += walks[w]
	}
	e.ing.connWalks.Add(walked)
	return total
}

// lookupConn finds key in a key-sorted run of known connectivity
// factors.
func lookupConn(run []connPair, key uint64) (float64, bool) {
	i, ok := slices.BinarySearchFunc(run, key, func(p connPair, k uint64) int {
		return cmp.Compare(p.key, k)
	})
	if !ok {
		return 0, false
	}
	return run[i].val, true
}

// ceilState guards the lazy ceiling materialisation of one plan
// generation: one sync.Once per concept, with the once-array itself
// allocated on the first query that needs a ceiling — an ingest-only
// workload never pays even the array's zeroing.
type ceilState struct {
	init  sync.Once
	onces []sync.Once
}

func (cs *ceilState) slots(n int) []sync.Once {
	cs.init.Do(func() { cs.onces = make([]sync.Once, n) })
	return cs.onces
}

// ensureCeilings materialises one concept plan's pruning blocks and
// ceiling visit order on first use at this generation. Ceilings are
// only read by the single-concept pruned scan, so computing them
// lazily — once per (concept, generation), under a sync.Once shared by
// every reader of the plan — moves their cost off the ingest commit
// path entirely while queries see byte-identical blocks: the fold
// below performs the exact floating-point operations, in the exact
// order, that the eager builder performed inside buildPlans. States
// that share plans verbatim (merge rebuilds, cache resets) share the
// ceiling state too, so a ceiling never recomputes across those swaps.
func (st *genState) ensureCeilings(c kg.NodeID, p *conceptPlan) {
	if len(p.docs) == 0 || c < 0 || int(c) >= len(st.plans) || st.ceil == nil {
		return
	}
	st.ceil.slots(len(st.plans))[c].Do(func() {
		e := st.e
		sc := e.planPool.Get().(*planScratch)
		defer e.planPool.Put(sc)
		snap := st.snap
		sc.ensure(0, 0, snap.NumBlocks())
		sc.bump()

		// Fold the persisted block-max tf tables over the extent into
		// per-block ubOnt maxima.
		ext := e.extent(c)
		for _, v := range ext {
			q := st.entIDFN[v]
			if q == 0 {
				continue
			}
			snap.EntityMaxTF(v, func(table []snapshot.BlockTF) {
				for _, bt := range table {
					sat := float64(bt.TF) / (float64(bt.TF) + 1)
					w := sat * q
					if sc.blockGen[bt.Block] != sc.gen {
						sc.blockGen[bt.Block] = sc.gen
						sc.blockAcc[bt.Block] = w
					} else if w > sc.blockAcc[bt.Block] {
						sc.blockAcc[bt.Block] = w
					}
				}
			})
		}
		spec := e.g.Specificity(c)
		cdrcCap := relevance.ConnToScore(relevance.ConnCap(len(ext), e.maxInstDeg, e.opts.Tau, e.opts.Beta))
		var blocks []planBlock
		lo := 0
		for lo < len(p.docs) {
			block := p.docs[lo] >> snapshot.BlockShift
			hi := lo + 1
			for hi < len(p.docs) && p.docs[hi]>>snapshot.BlockShift == block {
				hi++
			}
			ceil := 0.0
			if sc.blockGen[block] == sc.gen {
				ceil = spec * sc.blockAcc[block] * cdrcCap
			}
			// Defensive clamp: the bound is proven over the real numbers
			// and op-monotone for the ontology part; raising it to the
			// realised maximum makes the skip rule unconditionally sound
			// even if sampled-conn accumulation ever rounds above the cap.
			// The same walk collects the block's exact publication-time
			// bounds; doc times are immutable and blocks are global-ID
			// aligned, so bounds carried across merge swaps stay exact.
			minT, maxT := snap.Doc(p.docs[lo]).PublishedAt, snap.Doc(p.docs[lo]).PublishedAt
			for j := lo; j < hi; j++ {
				if p.scores[j] > ceil {
					ceil = p.scores[j]
				}
				if t := snap.Doc(p.docs[j]).PublishedAt; t < minT {
					minT = t
				} else if t > maxT {
					maxT = t
				}
			}
			blocks = append(blocks, planBlock{lo: int32(lo), hi: int32(hi), ceil: ceil, minT: minT, maxT: maxT})
			lo = hi
		}
		ceilOrder := make([]int32, len(blocks))
		for j := range ceilOrder {
			ceilOrder[j] = int32(j)
		}
		slices.SortFunc(ceilOrder, func(a, b int32) int {
			ba, bb := blocks[a], blocks[b]
			switch {
			case ba.ceil > bb.ceil:
				return -1
			case ba.ceil < bb.ceil:
				return 1
			case ba.lo < bb.lo:
				return -1
			default:
				return 1
			}
		})
		p.blocks = blocks
		p.ceilOrder = ceilOrder
	})
}

// docView is the document→attribute lookup the pruned scan filters on
// (source and publication time); satisfied by genState (and by test
// fakes).
type docView interface {
	docSource(doc int32) corpus.Source
	docTime(doc int32) int64
}

func (st *genState) docSource(doc int32) corpus.Source {
	return st.snap.Doc(doc).Source
}

func (st *genState) docTime(doc int32) int64 {
	return st.snap.Doc(doc).PublishedAt
}

// sourceAllowed reports membership in the (tiny) allowed-source list.
func sourceAllowed(allowed []corpus.Source, s corpus.Source) bool {
	for _, a := range allowed {
		if a == s {
			return true
		}
	}
	return false
}

// scanPlanPruned is the single-concept pruned roll-up scan: walk the
// plan's blocks in ceiling order, push scored documents keyed by their
// ID (order-independent tie-breaking identical to an exhaustive
// ascending scan), and skip the scoring of any block whose ceiling is
// STRICTLY below the current top-k threshold — at equality a block may
// still evict on the ID tie-break, so it must be scored. Returns the
// filter-passing match count (Total).
//
// Filters tighten rather than disable pruning:
//
//   - minScore > 0 is itself a skip threshold: a block with
//     ceil < minScore strictly can contain no document passing the
//     floor, so it is skipped entirely and contributes nothing to
//     Total (equality passes the floor, hence strict again);
//   - a time range skips blocks disjoint from it BEFORE any score
//     work, and those blocks contribute nothing to Total either: no
//     document in them can pass the per-document time predicate;
//   - a source filter (or a partially overlapping time range, or an
//     active per-period aggregation) only changes which skipped
//     documents COUNT: documents in threshold-skipped blocks still
//     match the query, so Total walks their attributes without
//     scoring anything.
func scanPlanPruned(ctx context.Context, p *conceptPlan, view docView,
	allowed []corpus.Source, minScore float64, tr *TimeRange, periods *periodAcc,
	coll *topk.Keyed[int32]) (int, error) {
	total := 0
	for _, bi := range p.ceilOrder {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		b := p.blocks[bi]
		if tr != nil && (b.maxT < tr.Min || b.minT > tr.Max) {
			continue
		}
		if minScore > 0 && b.ceil < minScore {
			continue
		}
		if th, full := coll.Threshold(); full && b.ceil < th {
			// Cannot change the retained set; count the matches only.
			if minScore > 0 {
				// The floor needs per-document scores to decide Total, and
				// ceil ≥ minScore here, so fall through to scoring below.
			} else {
				// The whole block counts at once only when no per-document
				// attribute matters: no source filter, no aggregation, and
				// the block entirely inside the time range (bounds are
				// inclusive and exact).
				if allowed == nil && periods == nil && (tr == nil || (tr.Min <= b.minT && b.maxT <= tr.Max)) {
					total += int(b.hi - b.lo)
				} else {
					for j := b.lo; j < b.hi; j++ {
						d := p.docs[j]
						if allowed != nil && !sourceAllowed(allowed, view.docSource(d)) {
							continue
						}
						if tr != nil || periods != nil {
							t := view.docTime(d)
							if tr != nil && !tr.contains(t) {
								continue
							}
							total++
							if periods != nil {
								periods.add(t)
							}
							continue
						}
						total++
					}
				}
				continue
			}
		}
		for j := b.lo; j < b.hi; j++ {
			d := p.docs[j]
			if allowed != nil && !sourceAllowed(allowed, view.docSource(d)) {
				continue
			}
			var t int64
			if tr != nil || periods != nil {
				t = view.docTime(d)
				if tr != nil && !tr.contains(t) {
					continue
				}
			}
			rel := p.scores[j]
			if minScore > 0 && rel < minScore {
				continue
			}
			total++
			if periods != nil {
				periods.add(t)
			}
			coll.Push(d, int64(d), rel)
		}
	}
	return total, nil
}

// scanMergedPlans is the multi-concept roll-up scan: a leapfrog
// intersection of the plans' sorted document lists, summing the
// per-concept scores at the aligned cursors. cursors must be len(plans)
// zeros; ctx is observed every ctxStride candidate alignments. No block
// pruning here: per-concept ceilings would have to be summed across
// blocks that intersect only partially, and multi-concept queries are
// both rare and already reduced to the (small) intersection — the
// leapfrog is the win. Tie-breaking matches an ascending exhaustive
// scan because intersections emit documents in ascending ID order and
// the collector keys by document ID.
func scanMergedPlans(ctx context.Context, plans []*conceptPlan, cursors []int, view docView,
	allowed []corpus.Source, minScore float64, tr *TimeRange, periods *periodAcc,
	coll *topk.Keyed[int32]) (int, error) {
	total := 0
	steps := 0
	p0 := plans[0]
outer:
	for cursors[0] < len(p0.docs) {
		if steps%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		steps++
		d := p0.docs[cursors[0]]
		for i := 1; i < len(plans); i++ {
			docs := plans[i].docs
			j := cursors[i]
			for j < len(docs) && docs[j] < d {
				j++
			}
			cursors[i] = j
			if j == len(docs) {
				break outer
			}
			if docs[j] > d {
				j0 := cursors[0]
				for j0 < len(p0.docs) && p0.docs[j0] < docs[j] {
					j0++
				}
				cursors[0] = j0
				continue outer
			}
		}
		// d is in every plan at the current cursors.
		if allowed == nil || sourceAllowed(allowed, view.docSource(d)) {
			var t int64
			pass := true
			if tr != nil || periods != nil {
				t = view.docTime(d)
				pass = tr == nil || tr.contains(t)
			}
			if pass {
				rel := 0.0
				for i, p := range plans {
					rel += p.scores[cursors[i]]
				}
				if !(minScore > 0 && rel < minScore) {
					total++
					if periods != nil {
						periods.add(t)
					}
					coll.Push(d, int64(d), rel)
				}
			}
		}
		cursors[0]++
	}
	return total, nil
}
