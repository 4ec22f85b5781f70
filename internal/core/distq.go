package core

// Distributed exact querying: the scatter/gather surface a query
// router uses to answer over a sharded corpus (see shard.go for the
// sharding model) with pages byte-identical to a monolithic engine's.
//
// Roll-up distributes trivially: scores are per-document and already
// corpus-global on every shard (remote IDF statistics are folded in),
// so each shard returns its local top-(K+Offset) page and
// MergeRollUpPages k-way-merges them under the same (score desc, doc
// asc) total order the shards ranked by.
//
// Drill-down does not distribute per-document: coverage sums cdr
// contributions across *all* matched documents, and float addition is
// not associative — a router that summed per-shard coverages could
// diverge from the monolithic result in the last bits. So shards ship
// the raw accumulation input instead (DrillDownPartials: per matched
// document, its kept candidate concepts with their cdr values, in
// stored order), and MergeDrillDown replays the monolithic
// accumulation over the merged document stream in ascending global ID
// order — the exact float operation sequence a single engine would have
// executed. The diversity factor needs one more round trip: it counts
// distinct matched entities per shortlisted concept, a set union that
// cannot be derived from per-shard cardinalities, so the router fetches
// per-shard entity sets (DiversityPartials) for just the shortlist and
// dedupes across shards. A shard builds those sets over the same
// per-concept document chain DrillDownPage unions over
// (chainCandidates: D(Q ∪ {c}), the documents where c is a kept
// candidate), and everything downstream — shortlist selection, score
// composition, tie-breaking, pagination — follows the same helpers and
// collector semantics as DrillDownPage, so the merged page is
// byte-identical.
//
// Both partials cross the router↔shard hop as binary frames (frame.go)
// that carry every cdr as its exact bits.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/topk"
)

// ErrGenerationSkew marks a merge over shard partials that were served
// from different snapshot generations. Routers treat it as transient:
// re-fetch until every shard answers at the same generation.
var ErrGenerationSkew = errors.New("core: shard answers span different snapshot generations")

// cmpDocResult is the roll-up ranking order — (score desc, doc asc) —
// shared by every shard's collector and the router's merge. Document
// IDs are globally unique, so the order is total.
func cmpDocResult(a, b DocResult) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	return 0
}

// MergeRollUpPages merges per-shard roll-up pages into the global page
// for (k, offset). Every input page must have been produced at the
// same generation with K = k+offset, Offset = 0, and identical source
// and score filters; Total sums (shards partition the corpus, so
// filter-passing counts add), and the merged ranking is sliced like
// the monolithic page.
func MergeRollUpPages(pages []RollUpPage, k, offset int) (RollUpPage, error) {
	var out RollUpPage
	if len(pages) == 0 {
		return out, nil
	}
	out.Generation = pages[0].Generation
	lists := make([][]DocResult, 0, len(pages))
	for _, p := range pages {
		if p.Generation != out.Generation {
			return RollUpPage{}, ErrGenerationSkew
		}
		out.Total += p.Total
		if len(p.Results) > 0 {
			lists = append(lists, p.Results)
		}
	}
	if k <= 0 || offset < 0 {
		return out, nil
	}
	limit := k + offset
	if limit < 0 { // overflow of a huge caller offset
		limit = -1
	}
	merged := topk.MergeSorted(lists, cmpDocResult, limit)
	if offset >= len(merged) {
		return out, nil
	}
	merged = merged[offset:]
	if len(merged) > k {
		merged = merged[:k]
	}
	out.Results = merged
	return out, nil
}

// DrillDownRow is one matched document's contribution to the drill-down
// accumulation: its candidate concepts (the query's own concepts
// already filtered out) with their cdr values, in the engine's stored
// per-document order. Concepts and CDRs are parallel slices.
type DrillDownRow struct {
	Doc      int32
	Concepts []kg.NodeID
	CDRs     []float64
}

// DrillDownPartial is one shard's drill-down accumulation input: a row
// per matched document that has at least one candidate concept, in
// ascending global document order, pinned to the generation it was
// read from. It crosses the router↔shard hop as an NCDP frame
// (frame.go).
type DrillDownPartial struct {
	Generation uint64
	Rows       []DrillDownRow
}

// DrillDownPartials extracts this shard's accumulation input for query
// q — phase one of a distributed drill-down. The rows replay exactly
// the per-document walk DrillDownPage performs locally, including the
// same publication-time filter when tr is non-nil, so the merged page
// stays byte-identical to a monolithic time-filtered drill-down.
func (e *Engine) DrillDownPartials(ctx context.Context, q Query, tr *TimeRange) (DrillDownPartial, error) {
	st := e.state()
	out := DrillDownPartial{Generation: st.snap.Generation}
	if len(q) == 0 {
		return out, nil
	}
	if tr != nil && !tr.overlapsSnapshot(st.snap) {
		return out, nil
	}
	docs, err := st.matchedDocsCtx(ctx, q)
	if err != nil {
		return DrillDownPartial{Generation: st.snap.Generation}, err
	}
	for i, d := range docs {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return DrillDownPartial{Generation: st.snap.Generation}, err
			}
		}
		if tr != nil && !tr.contains(st.snap.Doc(d).PublishedAt) {
			continue
		}
		row := DrillDownRow{Doc: d}
		for _, cs := range st.docConcepts(d) {
			if queryHas(q, cs.Concept) {
				continue
			}
			row.Concepts = append(row.Concepts, cs.Concept)
			row.CDRs = append(row.CDRs, cs.CDR)
		}
		if len(row.Concepts) > 0 {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// DiversityPartial is one shard's diversity input for a shortlist of
// concepts: per concept, the distinct entities in the concept's direct
// extent of the shard's documents in D(Q ∪ {c}), ascending. It crosses
// the router↔shard hop as an NCDV frame (frame.go).
type DiversityPartial struct {
	Generation uint64
	Sets       [][]kg.NodeID
}

// DiversityPartials computes this shard's diversity sets for query q
// and the given shortlist concepts — phase two of a distributed
// drill-down. Each set is directUnion over the same candidate chain
// DrillDownPage builds (chainCandidates: the documents where the
// concept is a kept candidate, inside tr when it is non-nil), so the
// union across shards — deduplicated by the merger, since sets from
// different shards may overlap — has exactly the cardinality the
// monolithic engine's union has.
func (e *Engine) DiversityPartials(ctx context.Context, q Query, concepts []kg.NodeID, tr *TimeRange) (DiversityPartial, error) {
	st := e.state()
	out := DiversityPartial{Generation: st.snap.Generation, Sets: make([][]kg.NodeID, len(concepts))}
	if len(q) == 0 || len(concepts) == 0 {
		return out, nil
	}
	if tr != nil && !tr.overlapsSnapshot(st.snap) {
		return out, nil
	}
	docs, err := st.matchedDocsCtx(ctx, q)
	if err != nil {
		return DiversityPartial{Generation: st.snap.Generation}, err
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	_, mark := sc.chainCandidates(st, q, docs, tr)
	ds := e.divPool.Get().(*divScratch)
	defer e.divPool.Put(ds)
	// All sets share one column; ends[i] closes set i.
	var all []kg.NodeID
	ends := make([]int, len(concepts))
	for i, c := range concepts {
		if err := ctx.Err(); err != nil {
			return DiversityPartial{Generation: st.snap.Generation}, err
		}
		start := len(all)
		// A concept no local document has as a candidate has an empty
		// set (and an ID outside the graph, from a confused caller, too).
		if c >= 0 && int(c) < len(sc.stamp) && sc.stamp[c] == mark {
			e.directUnion(st, sc, c, ds, &all)
			slices.Sort(all[start:])
		}
		ends[i] = len(all)
	}
	start := 0
	for i, end := range ends {
		if end > start {
			out.Sets[i] = all[start:end:end]
		}
		start = end
	}
	return out, nil
}

// mergeScratch is MergeDrillDown's pooled workspace: dense per-node
// coverage and count accumulators validated by the embedded stamp, the
// same never-cleared pattern as divScratch. After the replay the stamp
// is reused, with fresh marks per shortlisted concept, as the
// cross-shard entity deduplicator; cov and cnt are only read for
// concepts the replay touched, so that reuse cannot disturb them.
type mergeScratch struct {
	divScratch
	cov     []float64
	cnt     []int32
	cursors []int
	touched []kg.NodeID
	cand    []candScore
	short   []kg.NodeID
}

var mergePool sync.Pool

func getMergeScratch(numNodes int) *mergeScratch {
	ms, _ := mergePool.Get().(*mergeScratch)
	if ms == nil || len(ms.stamp) < numNodes {
		ms = &mergeScratch{
			divScratch: divScratch{stamp: make([]uint32, numNodes)},
			cov:        make([]float64, numNodes),
			cnt:        make([]int32, numNodes),
		}
	}
	return ms
}

// MergeDrillDown reproduces DrillDownPage over shard partials: it
// replays the rows in ascending global document order (a k-way merge of
// the already ascending per-shard rows) — the exact float operation
// sequence of the monolithic accumulation — selects the same shortlist
// (shortlist), fetches every shard's diversity sets for exactly that
// shortlist via fetchSets (one DiversityPartial per shard, each with one
// set per shortlisted concept), counts each concept's union across
// shards, and pages the scored window with the same collector
// semantics. The graph must be the one the shards were built on.
// Partials at differing generations yield ErrGenerationSkew; concept or
// entity IDs outside the graph, or a diversity answer of the wrong
// length, yield ErrFrame.
func MergeDrillDown(g *kg.Graph, opts DrillDownOptions, parts []DrillDownPartial,
	fetchSets func(shortlist []kg.NodeID) ([]DiversityPartial, error)) (DrillDownPage, error) {
	var page DrillDownPage
	if len(parts) == 0 {
		return page, nil
	}
	page.Generation = parts[0].Generation
	for _, p := range parts {
		if p.Generation != page.Generation {
			return DrillDownPage{}, ErrGenerationSkew
		}
	}
	useSpecificity, useDiversity := !opts.NoSpecificity, !opts.NoDiversity
	k := opts.K
	if k <= 0 || opts.Offset < 0 {
		return page, nil
	}
	numNodes := g.NumNodes()
	ms := getMergeScratch(numNodes)
	defer mergePool.Put(ms)

	// Replay the accumulation: documents ascending, concepts in stored
	// per-document order — the exact float addition sequence
	// DrillDownPage executes over the monolithic snapshot.
	covMark, _ := ms.marks()
	touched := ms.touched[:0]
	cursors := ms.cursors[:0]
	for range parts {
		cursors = append(cursors, 0)
	}
	ms.cursors = cursors
	for {
		best := -1
		for i := range parts {
			if cursors[i] < len(parts[i].Rows) &&
				(best < 0 || parts[i].Rows[cursors[i]].Doc < parts[best].Rows[cursors[best]].Doc) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		row := &parts[best].Rows[cursors[best]]
		cursors[best]++
		for j, c := range row.Concepts {
			if c < 0 || int(c) >= numNodes {
				return DrillDownPage{}, fmt.Errorf("%w: concept %d outside the graph", ErrFrame, c)
			}
			if ms.stamp[c] != covMark {
				ms.stamp[c] = covMark
				ms.cov[c] = 0
				ms.cnt[c] = 0
				touched = append(touched, c)
			}
			ms.cov[c] += row.CDRs[j]
			ms.cnt[c]++
		}
	}
	ms.touched = touched
	if len(touched) == 0 {
		return page, nil
	}

	spec := g.SpecTable()
	ms.short, ms.cand = shortlist(ms.short[:0], ms.cand[:0], touched, ms.cov, spec, useSpecificity, k)
	short := ms.short

	divs, err := fetchSets(short)
	if err != nil {
		return DrillDownPage{}, err
	}
	for j, d := range divs {
		if d.Generation != page.Generation {
			return DrillDownPage{}, ErrGenerationSkew
		}
		if len(d.Sets) != len(short) {
			return DrillDownPage{}, fmt.Errorf("%w: diversity answer %d holds %d sets for %d shortlisted concepts",
				ErrFrame, j, len(d.Sets), len(short))
		}
	}
	subs := make([]Subtopic, len(short))
	for i, c := range short {
		seen, _ := ms.marks()
		union := 0
		for _, d := range divs {
			for _, v := range d.Sets[i] {
				if v < 0 || int(v) >= numNodes {
					return DrillDownPage{}, fmt.Errorf("%w: entity %d outside the graph", ErrFrame, v)
				}
				if ms.stamp[v] != seen {
					ms.stamp[v] = seen
					union++
				}
			}
		}
		sub := Subtopic{
			Concept:     c,
			Coverage:    ms.cov[c],
			Specificity: spec[c],
			MatchedDocs: int(ms.cnt[c]),
		}
		if n := int(ms.cnt[c]); n > 0 {
			sub.Diversity = float64(union) / float64(n)
		}
		score := sub.Coverage
		if useSpecificity {
			score *= sub.Specificity
		}
		if useDiversity {
			score *= sub.Diversity
		}
		sub.Score = score
		subs[i] = sub
	}

	// Page exactly like DrillDownPage: push every scored entry in
	// shortlist order (its pruning provably retains the same set), same
	// collector, same Total semantics, same offset slice.
	limit := k + opts.Offset
	if limit < 0 || limit > len(subs) {
		limit = len(subs)
	}
	coll := topk.New[int32](limit)
	var total int
	if opts.MinScore > 0 {
		for i, sub := range subs {
			if sub.Score < opts.MinScore {
				continue
			}
			total++
			coll.Push(int32(i), sub.Score)
		}
	} else {
		total = len(subs)
		for i := range subs {
			coll.Push(int32(i), subs[i].Score)
		}
	}
	items := coll.Sorted()
	page.Total = total
	if opts.Offset >= len(items) {
		return page, nil
	}
	items = items[opts.Offset:]
	page.Results = make([]Subtopic, len(items))
	for i, it := range items {
		page.Results[i] = subs[it.Value]
	}
	return page, nil
}
