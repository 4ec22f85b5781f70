package core

import (
	"context"
	"math"
	"math/bits"
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
	// validity-stamped (stamp, gen; see marks) so they never need
	// clearing between queries: a stamp equal to touchMark validates
	// cov and cnt, one equal to rowMark slot as well — c's row in the
	// union columns below.
	stamp              []uint32
	gen                uint32
	touchMark, rowMark uint32
	cov                []float64
	cnt                []int32
	slot               []int32
	touched            []kg.NodeID

	// hits is the candidate pass's log of direct-extent members: one
	// entry per kept candidate c of a matched document d and entity of d
	// in Ψ(c), naming c and the entity's position in g.Extent(c).
	hits []extentPos

	// One bitset over direct-extent positions per union row j, in words
	// bits[bitOff[j]:bitOff[j+1]]; union[j] counts its set bits.
	bits   []uint64
	bitOff []int32
	union  []int32

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
		stamp: make([]uint32, numNodes),
		cov:   make([]float64, numNodes),
		cnt:   make([]int32, numNodes),
		slot:  make([]int32, numNodes),
	}
}

// marks reserves two fresh stamp values (wrap-safe): stale entries are
// always strictly below both, so the array acts as cleared without a
// clearing pass.
func (sc *queryScratch) marks() (uint32, uint32) {
	if sc.gen >= math.MaxUint32-2 {
		clear(sc.stamp)
		sc.gen = 0
	}
	sc.gen += 2
	return sc.gen - 1, sc.gen
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

// candidates is the drill-down candidate pass over the matched
// documents docs (only those published inside tr, when tr is non-nil).
// The candidates of a document are its kept candidate concepts,
// docConcepts(d), minus the query's own concepts; for each, the pass
// accumulates coverage and the match count, and logs into sc.hits the
// document's entities in the concept's direct extent Ψ(c). Those come
// from the document's position list (docPositions) by a merge walk:
// both lists are concept-ascending.
//
// The documents where c is a kept candidate are the set D(Q ∪ {c}) of
// Definition 2: coverage sums over it, MatchedDocs counts it, and the
// diversity union ranges over it (unions). DrillDownPage and the shard
// side of a distributed drill-down (DiversityPartials) both build it
// here, so the two can never union over different sets.
//
// It returns the touched concepts in first-touch order; sc.touchMark
// marks them valid in sc. Accumulation order — documents ascending,
// then candidates in stored order — is the float addition sequence
// every coverage value is defined by. ctx is observed every ctxStride
// documents.
func (sc *queryScratch) candidates(ctx context.Context, st *genState, q Query, docs []int32, tr *TimeRange) ([]kg.NodeID, error) {
	sc.touchMark, sc.rowMark = sc.marks()
	covMark := sc.touchMark
	touched, hits := sc.touched[:0], sc.hits[:0]
	for i, d := range docs {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				sc.touched, sc.hits = touched, hits
				return nil, err
			}
		}
		if tr != nil && !tr.contains(st.snap.Doc(d).PublishedAt) {
			continue
		}
		pos, k := st.docPositions(d), 0
		for _, cs := range st.docConcepts(d) {
			c := cs.Concept
			if queryHas(q, c) {
				continue
			}
			if sc.stamp[c] != covMark {
				sc.stamp[c] = covMark
				sc.cov[c] = 0
				sc.cnt[c] = 0
				touched = append(touched, c)
			}
			sc.cov[c] += cs.CDR
			sc.cnt[c]++
			for k < len(pos) && pos[k].c < c {
				k++
			}
			for ; k < len(pos) && pos[k].c == c; k++ {
				hits = append(hits, pos[k])
			}
		}
	}
	sc.touched, sc.hits = touched, hits
	return touched, nil
}

// unions counts the diversity union of every concept c in concepts
// that the last candidate pass touched: the distinct entities of the
// documents D(Q ∪ {c}) that lie in c's *direct* extent Ψ(c),
//
//	diversity(c, Q) = |∪_{d ∈ D(Q ∪ {c})} ME(c, d)| / |D(Q ∪ {c})|
//
// The direct extent matters: an umbrella concept whose members are only
// inherited from descendants contributes no direct matches and scores
// zero diversity, while a concept matching through one popular entity
// is pushed down — the fairness bias the paper designed this factor to
// prevent.
//
// Each counted concept gets a union row (row): a bitset over the
// positions of g.Extent(c), ⌈|Ψ(c)|/64⌉ words. One sequential pass over
// sc.hits sets the bits, and each newly set bit adds one member to
// union[row]. Rows are numbered in the order of concepts, so when every
// concept is touched and distinct — a shortlist — concept i owns row i.
// ctx is observed every ctxStride log entries.
func (sc *queryScratch) unions(ctx context.Context, g *kg.Graph, concepts []kg.NodeID) error {
	bitOff, union := append(sc.bitOff[:0], 0), sc.union[:0]
	for _, c := range concepts {
		if c < 0 || int(c) >= len(sc.stamp) || sc.stamp[c] != sc.touchMark {
			continue
		}
		sc.stamp[c] = sc.rowMark
		sc.slot[c] = int32(len(union))
		union = append(union, 0)
		bitOff = append(bitOff, bitOff[len(bitOff)-1]+int32((g.ExtentSize(c)+63)/64))
	}
	n := int(bitOff[len(bitOff)-1])
	words := slices.Grow(sc.bits[:0], n)[:n]
	clear(words)
	sc.bits, sc.bitOff, sc.union = words, bitOff, union
	for i, h := range sc.hits {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if sc.stamp[h.c] != sc.rowMark {
			continue
		}
		j := sc.slot[h.c]
		w := &words[bitOff[j]+h.pos>>6]
		if bit := uint64(1) << (h.pos & 63); *w&bit == 0 {
			*w |= bit
			union[j]++
		}
	}
	return nil
}

// row returns concept c's union row from the last union pass, or -1
// when c has none: no local document has it as a candidate (or, from a
// confused caller, c is outside the graph).
func (sc *queryScratch) row(c kg.NodeID) int {
	if c < 0 || int(c) >= len(sc.stamp) || sc.stamp[c] != sc.rowMark {
		return -1
	}
	return int(sc.slot[c])
}

// appendMembers appends union row j's members — the entries of ext =
// g.Extent(c) at its set positions — to out. Extents are sorted, so the
// members come out ascending.
func (sc *queryScratch) appendMembers(out, ext []kg.NodeID, j int) []kg.NodeID {
	for wi, w := range sc.bits[sc.bitOff[j]:sc.bitOff[j+1]] {
		for ; w != 0; w &= w - 1 {
			out = append(out, ext[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// DrillDownPage is DrillDown with pagination, a score floor, the
// ablation toggles, and cancellation: the candidate and union passes
// observe ctx and return its error. With Offset 0 and the zero options
// the page contents are identical to DrillDown(q, opts.K).
//
// The candidate accumulation runs on the pooled dense scratch
// (stamp-validated per-node arrays) instead of maps; iteration and
// accumulation order — documents ascending, then candidates by node ID
// — is identical to the former map implementation, so scores and
// tie-breaking are unchanged.
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
	touched, err := sc.candidates(ctx, st, q, docs, opts.Time)
	if err != nil || len(touched) == 0 {
		return page, err
	}
	if err := sc.unions(ctx, e.g, sc.shortlist(touched, e.g.SpecTable(), opts)); err != nil {
		return page, err
	}
	sc.rank(e.g, opts, &page)
	return page, nil
}

// rank is Definition 2's ranking over the shortlist sc.shortVals, whose
// coverage and match counts sc holds and whose diversity union counts
// sit in sc.union (entry i's at union[i]). It scores every entry
// coverage × specificity × diversity, then pages the scored window into
// page.Results and page.Total by the MinScore/Total rule and the offset
// slice.
//
// DrillDownPage and MergeDrillDown both rank here, and differ in how
// the union counts were made: a node's union pass over its candidate
// log (unions), the router's dedupe of the shards' sets.
func (sc *queryScratch) rank(g *kg.Graph, opts DrillDownOptions, page *DrillDownPage) {
	short, spec := sc.shortVals, g.SpecTable()
	for len(sc.subs) < len(short) {
		sc.subs = append(sc.subs, Subtopic{})
	}
	subs := sc.subs[:len(short)]
	limit := opts.K + opts.Offset
	if limit < 0 || limit > len(subs) {
		limit = len(subs)
	}
	// The collector ranks shortlist indexes, not Subtopic values: heap
	// swaps then move 16 bytes instead of a full Subtopic. Pushes follow
	// the shortlist order, which breaks score ties.
	if sc.subColl == nil {
		sc.subColl = topk.New[int32](limit)
	} else {
		sc.subColl.Reset(limit)
	}
	coll := sc.subColl
	total := 0
	for i, c := range short {
		sub := Subtopic{Concept: c, Coverage: sc.cov[c], Specificity: spec[c], MatchedDocs: int(sc.cnt[c])}
		if n := sub.MatchedDocs; n > 0 {
			sub.Diversity = float64(sc.union[i]) / float64(n)
		}
		sub.Score = sub.Coverage
		if !opts.NoSpecificity {
			sub.Score *= sub.Specificity
		}
		if !opts.NoDiversity {
			sub.Score *= sub.Diversity
		}
		subs[i] = sub
		// A floor's Total counts only the entries at or above it.
		if opts.MinScore > 0 && sub.Score < opts.MinScore {
			continue
		}
		total++
		coll.Push(int32(i), sub.Score)
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
