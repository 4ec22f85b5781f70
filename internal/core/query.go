package core

import (
	"context"
	"math"
	"slices"
	"sort"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/topk"
)

// ctxStride is how many per-document iterations run between context
// checks on the query paths (the pruned scan checks per block instead:
// a block is at most BlockSize documents of pure arithmetic).
const ctxStride = 64

// Generation pinning: every public query entry point loads the current
// genState exactly once and threads it through all per-document reads
// and plan lookups. A query therefore observes one snapshot generation
// end-to-end — an Ingest swapping mid-query can never hand it a
// half-old, half-new view.

// queryScratch is the pooled per-query workspace: the roll-up collector
// and page scratch, plus the dense per-node accumulators behind
// drill-down. Dense arrays are sized by the immutable graph, so the
// pool is engine-wide and a warmed entry serves any generation. The
// router's drill-down merge runs on the same type (routerScratch).
type queryScratch struct {
	// Roll-up state.
	coll    *topk.Keyed[int32]
	items   []topk.KeyedItem[int32]
	qplans  []*conceptPlan
	cursors []int

	// Drill-down dense per-concept accumulators, indexed by node ID and
	// validity-stamped (the embedded stamp) so they never need clearing
	// between queries.
	divScratch
	cov     []float64
	cnt     []int32
	pr      []int32
	head    []int32
	touched []kg.NodeID

	// mdDoc/mdNext form the shared matched-document pair log: head[c]
	// chains concept c's entries (most recent first) through mdNext.
	mdDoc  []int32
	mdNext []int32

	cand      []candScore
	shortVals []kg.NodeID
	subs      []Subtopic
	subColl   *topk.Collector[int32]
	subItems  []topk.Item[int32]
}

// candScore pairs a candidate subtopic with its cheap (pre-diversity)
// score for shortlist selection.
type candScore struct {
	c kg.NodeID
	s float64
}

// cmpCandScore orders candidates by (score desc, concept asc); concept
// IDs are unique, so the order is total and deterministic.
func cmpCandScore(a, b candScore) int {
	switch {
	case a.s > b.s:
		return -1
	case a.s < b.s:
		return 1
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return 0
}

// selectTopCand partitions s so that its k first-by-cmpCandScore
// elements occupy s[:k] (in arbitrary internal order): a quickselect
// with median-of-three pivots, average O(len(s)). The order is total
// (concept IDs are unique), so the selected set is exact — sorting the
// prefix afterwards yields the same result as sorting all of s.
func selectTopCand(s []candScore, k int) {
	lo, hi := 0, len(s)
	for hi-lo > 1 {
		// Median of three as the pivot, placed at mid.
		mid := int(uint(lo+hi) >> 1)
		if cmpCandScore(s[mid], s[lo]) < 0 {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmpCandScore(s[hi-1], s[mid]) < 0 {
			s[hi-1], s[mid] = s[mid], s[hi-1]
			if cmpCandScore(s[mid], s[lo]) < 0 {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		p := s[mid]
		i, j := lo, hi-1
		for i <= j {
			for cmpCandScore(s[i], p) < 0 {
				i++
			}
			for cmpCandScore(p, s[j]) < 0 {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] ≤ pivot region ≤ s[i:hi]; recurse into the side
		// holding the k-th boundary.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

func newQueryScratch(numNodes int) *queryScratch {
	return &queryScratch{
		divScratch: divScratch{stamp: make([]uint32, numNodes)},
		cov:        make([]float64, numNodes),
		cnt:        make([]int32, numNodes),
		pr:         make([]int32, numNodes),
		head:       make([]int32, numNodes),
	}
}

// divScratch is the pooled per-worker diversity workspace: one dense
// stamp array used both as the direct-extent membership set and as the
// union deduplicator.
type divScratch struct {
	stamp []uint32
	gen   uint32
}

// marks reserves two fresh stamp values (wrap-safe): stale entries are
// always strictly below both, so the array acts as cleared without a
// clearing pass.
func (ds *divScratch) marks() (uint32, uint32) {
	if ds.gen >= math.MaxUint32-2 {
		for i := range ds.stamp {
			ds.stamp[i] = 0
		}
		ds.gen = 0
	}
	ds.gen += 2
	return ds.gen - 1, ds.gen
}

func (e *Engine) getScratch() *queryScratch   { return e.scratch.Get().(*queryScratch) }
func (e *Engine) putScratch(sc *queryScratch) { e.scratch.Put(sc) }

// conceptMatches returns the sorted document IDs matching concept c —
// documents containing at least one entity of c's extent closure
// (Definition 1 matching semantics). The list is precomputed in the
// generation's plan; the returned slice is shared and must not be
// modified.
func (st *genState) conceptMatches(c kg.NodeID) []int32 {
	return st.plan(c).docs
}

// matchedDocs intersects the per-concept match lists: a document
// matches Q iff it matches every concept in Q.
func (st *genState) matchedDocs(q Query) []int32 {
	docs, _ := st.matchedDocsCtx(context.Background(), q)
	return docs
}

// matchedDocsCtx is matchedDocs with cancellation checked between
// per-concept intersections.
func (st *genState) matchedDocsCtx(ctx context.Context, q Query) ([]int32, error) {
	if len(q) == 0 {
		return nil, nil
	}
	if len(q) == 1 {
		return st.conceptMatches(q[0]), nil
	}
	lists := make([][]int32, len(q))
	for i, c := range q {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lists[i] = st.conceptMatches(c)
		if len(lists[i]) == 0 {
			return nil, nil
		}
	}
	// Intersect starting from the shortest list.
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersectSorted(out, l)
		if len(out) == 0 {
			return nil, nil
		}
	}
	return out, nil
}

// containsConcept reports whether c is in the (typically tiny) direct
// concept list of an entity.
func containsConcept(s []kg.NodeID, c kg.NodeID) bool {
	for _, x := range s {
		if x == c {
			return true
		}
	}
	return false
}

// queryHas reports whether c is one of the (few) query concepts.
func queryHas(q Query, c kg.NodeID) bool {
	for _, x := range q {
		if x == c {
			return true
		}
	}
	return false
}

func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// contribution is concept c's share of document d's relevance at this
// generation, read from c's plan: cdr(c, d) and its pivot, or zero
// with kg.InvalidNode when d does not match c. Every explanation and
// every rel(Q, d) outside the plan scans is summed from here.
func (st *genState) contribution(c kg.NodeID, d int32) ConceptContribution {
	p := st.plan(c)
	if i := p.planIdx(d); i >= 0 {
		return ConceptContribution{Concept: c, CDR: p.scores[i], Pivot: p.pivots[i]}
	}
	return ConceptContribution{Concept: c, Pivot: kg.InvalidNode}
}

// MatchedDocs returns all documents matching the concept pattern Q, in
// ascending document order. Safe for concurrent use.
func (e *Engine) MatchedDocs(q Query) []corpus.DocID {
	docs := e.state().matchedDocs(q)
	out := make([]corpus.DocID, len(docs))
	for i, d := range docs {
		out[i] = corpus.DocID(d)
	}
	return out
}

// RollUpOptions parameterises a paged roll-up. The zero value of every
// field except K means "no constraint": Offset 0 starts at the top,
// nil Sources admits every source, MinScore <= 0 disables the score
// floor.
type RollUpOptions struct {
	// K is the page size. K <= 0 yields an empty page (the facade
	// validates and rejects non-positive K before reaching the engine).
	K int
	// Offset skips the first Offset ranked results (pagination).
	Offset int
	// Sources restricts results to documents from these sources.
	Sources []corpus.Source
	// MinScore excludes documents with rel(Q, d) < MinScore when > 0.
	MinScore float64
	// Time restricts results to documents whose publication time falls
	// in the range (both ends inclusive). nil admits every time.
	Time *TimeRange
	// GroupBy additionally buckets every filter-passing match by its
	// publication period into RollUpPage.Periods. GroupNone disables.
	GroupBy GroupBy
}

// RollUpPage is one page of roll-up results plus the total number of
// matching documents that passed the filters — what a paginating
// client needs to compute the next offset — and the snapshot
// generation the whole page was served from.
type RollUpPage struct {
	Results    []DocResult
	Total      int
	Generation uint64
	// Periods holds the per-period match counts when GroupBy is set
	// (ascending period start; counts sum to Total), nil otherwise.
	Periods []PeriodBucket
}

// RollUp implements Definition 1: the top-K documents d matching Q with
// the highest rel(Q, d) = Σ_{c∈Q} cdr(c, d), each with its per-concept
// explanation.
func (e *Engine) RollUp(q Query, k int) []DocResult {
	page, _ := e.RollUpPage(context.Background(), q, RollUpOptions{K: k})
	return page.Results
}

// RollUpPage is RollUp with pagination, source/score filters, and
// cancellation. With Offset 0 and no filters the page contents are
// identical to RollUp(q, opts.K).
func (e *Engine) RollUpPage(ctx context.Context, q Query, opts RollUpOptions) (RollUpPage, error) {
	var page RollUpPage
	err := e.RollUpPageInto(ctx, q, opts, &page)
	return page, err
}

// RollUpPageInto is RollUpPage writing into a caller-owned page,
// reusing its Results and Contributors backing storage — the warm
// path allocates nothing. Single-concept queries run the block-max
// pruned scan over the generation's plan (see plan.go); multi-concept
// queries leapfrog-intersect the plans with scores summed at the
// cursors. Cancellation is observed per pruning block, every ctxStride
// intersection steps, and every ctxStride explanation fills; a ctx
// error empties the page.
func (e *Engine) RollUpPageInto(ctx context.Context, q Query, opts RollUpOptions, page *RollUpPage) error {
	st := e.state()
	page.Generation = st.snap.Generation
	page.Total = 0
	page.Results = page.Results[:0]
	page.Periods = nil
	if opts.K <= 0 || len(q) == 0 || opts.Offset < 0 {
		return nil
	}
	// Whole-snapshot time pruning: a window disjoint from every
	// segment's exact bounds cannot match anything — skip the plan and
	// ceiling machinery entirely.
	if opts.Time != nil && !opts.Time.overlapsSnapshot(st.snap) {
		return nil
	}
	sc := e.getScratch()
	defer e.putScratch(sc)

	qplans := sc.qplans[:0]
	minLen := 0
	for _, c := range q {
		p := st.plan(c)
		if len(p.docs) == 0 {
			sc.qplans = qplans
			return nil
		}
		qplans = append(qplans, p)
		if minLen == 0 || len(p.docs) < minLen {
			minLen = len(p.docs)
		}
	}
	sc.qplans = qplans

	// The collector needs K+Offset slots, but never more than there can
	// be matched documents — and Offset is caller-controlled, so capping
	// also stops a huge (or overflowing) offset from turning into a huge
	// allocation. The cap never changes results: a collector at least as
	// large as the push count retains everything.
	limit := opts.K + opts.Offset
	if limit < 0 || limit > minLen {
		limit = minLen
	}
	if sc.coll == nil {
		sc.coll = topk.NewKeyed[int32](limit)
	} else {
		sc.coll.Reset(limit)
	}
	var allowed []corpus.Source
	if len(opts.Sources) > 0 {
		allowed = opts.Sources
	}

	periods := newPeriodAcc(opts.GroupBy)
	var total int
	var err error
	if len(qplans) == 1 {
		st.ensureCeilings(q[0], qplans[0])
		total, err = scanPlanPruned(ctx, qplans[0], st, allowed, opts.MinScore, opts.Time, periods, sc.coll)
	} else {
		cursors := sc.cursors[:0]
		for range qplans {
			cursors = append(cursors, 0)
		}
		sc.cursors = cursors
		total, err = scanMergedPlans(ctx, qplans, cursors, st, allowed, opts.MinScore, opts.Time, periods, sc.coll)
	}
	if err != nil {
		return err
	}
	page.Total = total
	page.Periods = periods.buckets()

	sc.items = sc.coll.AppendSorted(sc.items[:0])
	items := sc.items
	if opts.Offset >= len(items) {
		return nil
	}
	items = items[opts.Offset:]
	// Re-extend through the capacity (not by appending zero values, which
	// would wipe the Contributors backing arrays retained in the spare
	// slots) so a warm page reuses every previous allocation.
	if n := len(items); cap(page.Results) >= n {
		page.Results = page.Results[:n]
	} else {
		page.Results = append(page.Results[:cap(page.Results)], make([]DocResult, n-cap(page.Results))...)
	}
	for i, it := range items {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				page.Total = 0
				page.Results = page.Results[:0]
				return err
			}
		}
		res := &page.Results[i]
		res.Doc = corpus.DocID(it.Value)
		res.Score = it.Score
		res.Contributors = res.Contributors[:0]
		for _, c := range q {
			res.Contributors = append(res.Contributors, st.contribution(c, it.Value))
		}
	}
	return nil
}

// rollUpPageExhaustive is the pre-planner roll-up: score every matched
// document in ascending ID order, concept by concept, into a
// sequential collector. Kept as the equivalence oracle for the pruned
// scan — property tests require RollUpPage to reproduce its pages
// byte-for-byte at every generation, offset, and filter combination.
// Not used by the serving path.
func (e *Engine) rollUpPageExhaustive(ctx context.Context, q Query, opts RollUpOptions) (RollUpPage, error) {
	st := e.state()
	out := RollUpPage{Generation: st.snap.Generation}
	if opts.K <= 0 || len(q) == 0 || opts.Offset < 0 {
		return out, nil
	}
	docs, err := st.matchedDocsCtx(ctx, q)
	if err != nil {
		return out, err
	}
	if len(docs) == 0 {
		return out, nil
	}
	var allowed map[corpus.Source]bool
	if len(opts.Sources) > 0 {
		allowed = make(map[corpus.Source]bool, len(opts.Sources))
		for _, s := range opts.Sources {
			allowed[s] = true
		}
	}
	periods := newPeriodAcc(opts.GroupBy)
	total := 0
	limit := opts.K + opts.Offset
	if limit < 0 || limit > len(docs) {
		limit = len(docs)
	}
	coll := topk.New[int32](limit)
	for i, d := range docs {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return RollUpPage{Generation: st.snap.Generation}, err
			}
		}
		if allowed != nil && !allowed[st.snap.Doc(d).Source] {
			continue
		}
		var ts int64
		if opts.Time != nil || periods != nil {
			ts = st.snap.Doc(d).PublishedAt
			if opts.Time != nil && !opts.Time.contains(ts) {
				continue
			}
		}
		rel := 0.0
		for _, c := range q {
			rel += st.contribution(c, d).CDR
		}
		if opts.MinScore > 0 && rel < opts.MinScore {
			continue
		}
		total++
		if periods != nil {
			periods.add(ts)
		}
		coll.Push(d, rel)
	}
	items := coll.Sorted()
	out.Total = total
	out.Periods = periods.buckets()
	if opts.Offset >= len(items) {
		return out, nil
	}
	items = items[opts.Offset:]
	out.Results = make([]DocResult, len(items))
	for i, it := range items {
		res := DocResult{Doc: corpus.DocID(it.Value), Score: it.Score}
		for _, c := range q {
			res.Contributors = append(res.Contributors, st.contribution(c, it.Value))
		}
		out.Results[i] = res
	}
	return out, nil
}

// DrillDownOptions parameterises a paged drill-down. The negated
// component toggles keep the zero value equal to the paper's full
// scoring (C·S·D).
type DrillDownOptions struct {
	// K is the page size. K <= 0 yields an empty page.
	K int
	// Offset skips the first Offset ranked suggestions (pagination).
	// The ranking is computed over a shortlist of max(128, K)
	// candidates independent of Offset, so pages of a fixed-K listing
	// are mutually consistent; offsets past the shortlist return
	// empty pages.
	Offset int
	// MinScore excludes suggestions scoring below it when > 0.
	MinScore float64
	// NoSpecificity / NoDiversity disable the corresponding score
	// factors — the Fig. 8 ablation (C, C+S, C+S+D).
	NoSpecificity bool
	NoDiversity   bool
	// Time restricts the matched-document set feeding coverage,
	// specificity pivots, and diversity to documents published inside
	// the range (both ends inclusive). nil admits every time.
	Time *TimeRange
}

// DrillDownPage is one page of subtopic suggestions plus the number
// of rankable suggestions behind the cursor: the scored shortlist
// size (so offset+k can actually reach every counted entry), reduced
// to the entries at or above MinScore when a floor is set. Generation
// is the snapshot the page was served from.
type DrillDownPage struct {
	Results    []Subtopic
	Total      int
	Generation uint64
}

// DrillDown implements Definition 2: the top-K subtopics c for Q by
// sbr(c, Q) = coverage(c, Q) · specificity(c) · diversity(c, Q).
func (e *Engine) DrillDown(q Query, k int) []Subtopic {
	page, _ := e.DrillDownPage(context.Background(), q, DrillDownOptions{K: k})
	return page.Results
}

// DrillDownComponents is DrillDown with the specificity and diversity
// factors individually switchable — the Fig. 8 ablation (C, C+S,
// C+S+D).
func (e *Engine) DrillDownComponents(q Query, k int, useSpecificity, useDiversity bool) []Subtopic {
	page, _ := e.DrillDownPage(context.Background(), q, DrillDownOptions{
		K: k, NoSpecificity: !useSpecificity, NoDiversity: !useDiversity,
	})
	return page.Results
}

// drillDownDocs is the prologue every drill-down entry point shares —
// DrillDownPage and both shard phases (DrillDownPartials,
// DiversityPartials): D(Q) at st, or nothing when the query is empty or
// the time window misses every segment of the snapshot.
func (st *genState) drillDownDocs(ctx context.Context, q Query, tr *TimeRange) ([]int32, error) {
	if len(q) == 0 || (tr != nil && !tr.overlapsSnapshot(st.snap)) {
		return nil, nil
	}
	return st.matchedDocsCtx(ctx, q)
}

// shortlist selects the concepts a drill-down pays diversity for: the
// top max(128, K) touched concepts by cheap score — coverage, times
// specificity unless disabled — best first, into sc.shortVals.
//
// The window is deliberately independent of the page offset: every
// page of a fixed-k listing re-ranks the *same* shortlist, so stitched
// pages can never duplicate or skip a suggestion (a window that grew
// with the offset would re-rank a larger candidate set on deeper pages
// and shift ranks across the boundary). Pagination therefore ends at
// the scored window — Total reports the rankable count, and the cursor
// goes -1 there — rather than pretending the cheap-score tail beyond it
// is ranked.
//
// Selection quickselects the window by (cheap score desc, concept asc)
// — concept IDs are unique, so the order is total — then sorts only the
// window. The selected set and its order are exactly the former bounded
// heap's deterministic (score, earliest-push) output, without sorting
// the full candidate list.
func (sc *queryScratch) shortlist(touched []kg.NodeID, spec []float64, opts DrillDownOptions) []kg.NodeID {
	size := max(128, opts.K)
	cand := sc.cand[:0]
	for _, c := range touched {
		s := sc.cov[c]
		if !opts.NoSpecificity {
			s *= spec[c]
		}
		cand = append(cand, candScore{c: c, s: s})
	}
	window := cand
	if len(window) > size {
		selectTopCand(window, size)
		window = window[:size]
	}
	slices.SortFunc(window, cmpCandScore)
	short := sc.shortVals[:0]
	for _, cs := range window {
		short = append(short, cs.c)
	}
	sc.cand, sc.shortVals = cand, short
	return short
}

// chainCandidates is the drill-down candidate pass over the matched
// documents docs (only those published inside tr, when tr is non-nil).
// The candidates of a document are its kept candidate concepts,
// docConcepts(d), minus the query's own concepts; for each, the pass
// accumulates coverage, the match count and the entity probe total
// (diversity's strategy pivot and the pruning bound), and chains the
// document into the concept's matched-document list through a shared
// pair log (head/next intrusive lists), so no second
// documents×candidates walk is ever needed.
//
// The chain of concept c is the document set D(Q ∪ {c}) of Definition
// 2: coverage sums over it, MatchedDocs counts it, and the diversity
// union ranges over it (directUnion). DrillDownPage and the shard side
// of a distributed drill-down (DiversityPartials) both build it here,
// so the two can never union over different sets.
//
// It returns the touched concepts in first-touch order and the stamp
// that marks them valid in sc. Accumulation order — documents
// ascending, then candidates in stored order — is the float addition
// sequence every coverage value is defined by.
func (sc *queryScratch) chainCandidates(st *genState, q Query, docs []int32, tr *TimeRange) ([]kg.NodeID, uint32) {
	covMark, _ := sc.marks()
	touched := sc.touched[:0]
	mdDoc, mdNext := sc.mdDoc[:0], sc.mdNext[:0]
	for _, d := range docs {
		if tr != nil && !tr.contains(st.snap.Doc(d).PublishedAt) {
			continue
		}
		ne := int32(len(st.ents[d]))
		for _, cs := range st.docConcepts(d) {
			c := cs.Concept
			if queryHas(q, c) {
				continue
			}
			if sc.stamp[c] != covMark {
				sc.stamp[c] = covMark
				sc.cov[c] = 0
				sc.cnt[c] = 0
				sc.pr[c] = 0
				sc.head[c] = -1
				touched = append(touched, c)
			}
			sc.cov[c] += cs.CDR
			sc.cnt[c]++
			sc.pr[c] += ne
			mdDoc = append(mdDoc, d)
			mdNext = append(mdNext, sc.head[c])
			sc.head[c] = int32(len(mdDoc) - 1)
		}
	}
	sc.touched, sc.mdDoc, sc.mdNext = touched, mdDoc, mdNext
	return touched, covMark
}

// directUnion counts the distinct entities of concept c's chained
// documents (see chainCandidates; c must have been touched by the last
// pass over sc) that lie in c's *direct* extent Ψ(c), appending each to
// *set as well when set is non-nil:
//
//	diversity(c, Q) = |∪_{d ∈ D(Q ∪ {c})} ME(c, d)| / |D(Q ∪ {c})|
//
// The direct extent matters: an umbrella concept whose members are only
// inherited from descendants contributes no direct matches and scores
// zero diversity, while a concept matching through one popular entity
// is pushed down — the fairness bias the paper designed this factor to
// prevent.
//
// Membership "v ∈ Ψ(c)": Ψ is stored both ways in the graph, so v ∈
// Extent(c) ⟺ c ∈ ConceptsOf(v). When the probe count is large enough
// to amortise it, premark the direct extent in the pooled dense stamp
// and count the union with O(1) probes; for sparsely-matched concepts
// with big extents the scan side is cheaper (|ConceptsOf(v)| is
// typically a handful). Both sides compute the identical union; the
// stamp array doubles as the across-document deduplicator either way.
// The chain yields documents in reverse order; the union's cardinality
// does not depend on it.
func (e *Engine) directUnion(st *genState, sc *queryScratch, c kg.NodeID, ds *divScratch, set *[]kg.NodeID) int {
	ext := e.g.Extent(c)
	seen, counted := ds.marks()
	union := 0
	if int(sc.pr[c]) >= len(ext) {
		for _, v := range ext {
			ds.stamp[v] = seen
		}
		for j := sc.head[c]; j >= 0; j = sc.mdNext[j] {
			for _, v := range st.ents[sc.mdDoc[j]] {
				if ds.stamp[v] == seen {
					ds.stamp[v] = counted
					union++
					if set != nil {
						*set = append(*set, v)
					}
				}
			}
		}
		return union
	}
	for j := sc.head[c]; j >= 0; j = sc.mdNext[j] {
		for _, v := range st.ents[sc.mdDoc[j]] {
			if ds.stamp[v] == seen || ds.stamp[v] == counted {
				continue
			}
			if containsConcept(e.g.ConceptsOf(v), c) {
				ds.stamp[v] = counted
				union++
				if set != nil {
					*set = append(*set, v)
				}
			} else {
				ds.stamp[v] = seen
			}
		}
	}
	return union
}

// DrillDownPage is DrillDown with pagination, a score floor, the
// ablation toggles, and cancellation: the parallel diversity loop
// stops claiming shortlist entries once ctx is cancelled, and the ctx
// error is returned. With Offset 0 and the zero options the page
// contents are identical to DrillDown(q, opts.K).
//
// The candidate accumulation (chainCandidates) runs on the pooled dense
// scratch (stamp-validated per-node arrays) instead of maps; iteration
// and accumulation order — documents ascending, then candidates by
// node ID — is identical to the former map implementation, so scores
// and tie-breaking are unchanged.
func (e *Engine) DrillDownPage(ctx context.Context, q Query, opts DrillDownOptions) (DrillDownPage, error) {
	st := e.state()
	page := DrillDownPage{Generation: st.snap.Generation}
	if opts.K <= 0 || opts.Offset < 0 {
		return page, nil
	}
	docs, err := st.drillDownDocs(ctx, q, opts.Time)
	if err != nil || len(docs) == 0 {
		return page, err
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	touched, _ := sc.chainCandidates(st, q, docs, opts.Time)
	if len(touched) == 0 {
		return page, nil
	}
	sc.shortlist(touched, e.g.SpecTable(), opts)
	err = sc.rank(ctx, e, e.g, opts, func(i int, ds *divScratch) int {
		return e.directUnion(st, sc, sc.shortVals[i], ds, nil)
	}, &page)
	return page, err
}

// rank is Definition 2's ranking over the shortlist sc.shortVals, whose
// coverage, match counts and entity probe totals sc holds (pr is only
// the pruning bound's second cap: math.MaxInt32 leaves |Ψ(c)| alone).
// It scores every entry coverage × specificity × diversity, prunes the
// tail by an upper bound, and pages the scored window into page.Results
// and page.Total by the MinScore/Total rule and the offset slice.
//
// DrillDownPage and MergeDrillDown both rank here, and differ in one
// input only: union(i, ds) counts the diversity union of shortlist
// entry i on the worker stamp ds — a node walks its candidate chain
// (directUnion), the router dedupes the shards' sets. A non-nil e lends
// its query workers and diversity pool to seeding windows of 64 or
// more; a nil e scores serially on sc's own stamp. On a ctx error page
// is left untouched.
func (sc *queryScratch) rank(ctx context.Context, e *Engine, g *kg.Graph, opts DrillDownOptions,
	union func(i int, ds *divScratch) int, page *DrillDownPage) error {
	short, spec := sc.shortVals, g.SpecTable()
	useSpecificity, useDiversity := !opts.NoSpecificity, !opts.NoDiversity
	// Each entry's score is independent (it reads only immutable data and
	// the accumulators) and lands in its own slot, so the Push order —
	// and with it tie-breaking — does not depend on who scored it. The
	// closure reads the shortlist and slots through sc, keeping the one
	// allocation it costs small.
	for len(sc.subs) < len(short) {
		sc.subs = append(sc.subs, Subtopic{})
	}
	subs := sc.subs[:len(short)]
	score := func(i int, ds *divScratch) {
		c := sc.shortVals[i]
		sub := Subtopic{Concept: c, Coverage: sc.cov[c], Specificity: spec[c], MatchedDocs: int(sc.cnt[c])}
		if n := sub.MatchedDocs; n > 0 {
			sub.Diversity = float64(union(i, ds)) / float64(n)
		}
		sub.Score = sub.Coverage
		if useSpecificity {
			sub.Score *= sub.Specificity
		}
		if useDiversity {
			sub.Score *= sub.Diversity
		}
		sc.subs[i] = sub
	}
	ds := &sc.divScratch
	if e != nil {
		ds = e.divPool.Get().(*divScratch)
		defer e.divPool.Put(ds)
	}
	// scoreHead scores entries [0, n).
	scoreHead := func(n int) error {
		if e != nil && n >= 64 {
			return e.queryParallelCtx(ctx, n, func(i int) {
				ds := e.divPool.Get().(*divScratch)
				score(i, ds)
				e.divPool.Put(ds)
			})
		}
		for i := 0; i < n; i++ {
			if i%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			score(i, ds)
		}
		return nil
	}

	limit := opts.K + opts.Offset
	if limit < 0 || limit > len(subs) {
		limit = len(subs)
	}
	// The collector ranks shortlist indexes, not Subtopic values: heap
	// swaps then move 16 bytes instead of a full Subtopic, and the push
	// order — hence tie-breaking — is exactly the same.
	if sc.subColl == nil {
		sc.subColl = topk.New[int32](limit)
	} else {
		sc.subColl.Reset(limit)
	}
	coll := sc.subColl
	total := len(subs)
	if opts.MinScore > 0 {
		// The floor's Total counts every shortlist entry at or above it,
		// so all scores are needed.
		if err := scoreHead(len(subs)); err != nil {
			return err
		}
		total = 0
		for i, sub := range subs {
			if sub.Score < opts.MinScore {
				continue
			}
			total++
			coll.Push(int32(i), sub.Score)
		}
	} else {
		// Upper-bound pruning over the shortlist tail: the first `limit`
		// entries always seed the collector. Every later entry first gets
		// a cheap bound — coverage (× specificity) × min(|Ψ(c)|, entity
		// probes)/|D| — that dominates its real score (the diversity
		// union is capped by both the direct extent and the probe count,
		// and fp multiplication is monotone). A full collector rejects
		// later pushes at scores equal to its threshold (ties favour
		// earlier pushes), so entries with bound ≤ threshold are skipped
		// without computing their diversity union: the retained set and
		// order are provably unchanged.
		if err := scoreHead(limit); err != nil {
			return err
		}
		for i := 0; i < limit; i++ {
			coll.Push(int32(i), subs[i].Score)
		}
		for i := limit; i < len(short); i++ {
			if (i-limit)%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if th, full := coll.Threshold(); full {
				c := short[i]
				ub := sc.cov[c]
				if useSpecificity {
					ub *= spec[c]
				}
				if useDiversity {
					ub *= float64(min(len(g.Extent(c)), int(sc.pr[c]))) / float64(sc.cnt[c])
				}
				if ub <= th {
					continue
				}
			}
			score(i, ds)
			coll.Push(int32(i), subs[i].Score)
		}
	}
	sc.subItems = coll.AppendSorted(sc.subItems[:0])
	page.Total = total
	if items := sc.subItems; opts.Offset < len(items) {
		items = items[opts.Offset:]
		page.Results = make([]Subtopic, len(items))
		for i, it := range items {
			page.Results[i] = subs[it.Value]
		}
	}
	return nil
}

// BroaderOptions lists the roll-up targets of a concept: its `broader`
// parents (what the UI offers when the user generalises a term).
func (e *Engine) BroaderOptions(c kg.NodeID) []kg.NodeID {
	return e.g.Broader(c)
}

// ConceptsForEntity lists the concepts an entity can be replaced with
// when forming a concept-pattern query, most specific first.
func (e *Engine) ConceptsForEntity(v kg.NodeID) []kg.NodeID {
	concepts := append([]kg.NodeID(nil), e.g.ConceptsOf(v)...)
	sort.Slice(concepts, func(i, j int) bool {
		si, sj := e.g.Specificity(concepts[i]), e.g.Specificity(concepts[j])
		if si != sj {
			return si > sj
		}
		return concepts[i] < concepts[j]
	})
	return concepts
}

// TopicKeywords amplifies a topic into a retrieval keyword list: the
// names of the topic's most connected extent entities (what the paper
// calls "curating a list of relevant keywords for retrieval").
func (e *Engine) TopicKeywords(c kg.NodeID, n int) []string {
	ext := e.extent(c)
	if n <= 0 || len(ext) == 0 {
		return nil
	}
	coll := topk.New[kg.NodeID](n)
	for _, v := range ext {
		coll.Push(v, float64(e.g.InstanceDegree(v)))
	}
	var out []string
	for _, v := range coll.Values() {
		out = append(out, e.g.Name(v))
	}
	return out
}
