package core

// Distributed exact drill-down: the scatter/gather surface a query
// router uses to answer over a sharded corpus (see shard.go for the
// sharding model) with pages byte-identical to a monolithic engine's.
// Roll-up needs nothing here: scores are per-document and already
// corpus-global on every shard (remote IDF statistics are folded in),
// so the router k-way-merges the shards' rendered top-(K+Offset) pages
// (ncexplorer.MergeRollUp).
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
// dedupes across shards. A shard builds those sets with the same
// candidate and union passes DrillDownPage counts with (candidates,
// unions: over D(Q ∪ {c}), the documents where c is a kept
// candidate). From the replayed accumulators on, the merge is
// DrillDownPage's own code — the same shortlist and the same ranking
// (queryScratch.rank), fed the deduplicated union counts — so the
// merged page is byte-identical.
//
// Both partials cross the router↔shard hop as binary frames (frame.go)
// that carry every cdr as its exact bits.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ncexplorer/internal/kg"
)

// ErrGenerationSkew marks a merge over shard partials that were served
// from different snapshot generations. Routers treat it as transient:
// re-fetch until every shard answers at the same generation.
var ErrGenerationSkew = errors.New("core: shard answers span different snapshot generations")

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
	docs, err := st.drillDownDocs(ctx, q, tr)
	if err != nil {
		return out, err
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
// drill-down. It runs DrillDownPage's own candidate and union passes
// (candidates, unions: the documents where the concept is a kept
// candidate, inside tr when it is non-nil) and emits each concept's
// union row in ascending entity order, so the union across shards —
// deduplicated by the merger, since sets from different shards may
// overlap — has exactly the cardinality the monolithic engine's union
// has.
func (e *Engine) DiversityPartials(ctx context.Context, q Query, concepts []kg.NodeID, tr *TimeRange) (DiversityPartial, error) {
	st := e.state()
	out := DiversityPartial{Generation: st.snap.Generation, Sets: make([][]kg.NodeID, len(concepts))}
	if len(concepts) == 0 {
		return out, nil
	}
	failed := DiversityPartial{Generation: st.snap.Generation}
	docs, err := st.drillDownDocs(ctx, q, tr)
	if err != nil {
		return failed, err
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	if _, err := sc.candidates(ctx, st, q, docs, tr); err != nil {
		return failed, err
	}
	if err := sc.unions(ctx, e.g, concepts); err != nil {
		return failed, err
	}
	// All sets share one column, sized up front from the union counts.
	// A concept no local document has as a candidate has no union row
	// and an empty set.
	size := 0
	for _, c := range concepts {
		if j := sc.row(c); j >= 0 {
			size += int(sc.union[j])
		}
	}
	all := make([]kg.NodeID, 0, size)
	for i, c := range concepts {
		start := len(all)
		if j := sc.row(c); j >= 0 {
			all = sc.appendMembers(all, e.g.Extent(c), j)
		}
		if len(all) > start {
			out.Sets[i] = all[start:len(all):len(all)]
		}
	}
	return out, nil
}

// routerScratch pools the queryScratch merges rank on: a router holds no
// Engine, so the pool is package-wide, and an entry sized for a smaller
// graph than the merge names is replaced.
var routerScratch sync.Pool

// MergeDrillDown reproduces DrillDownPage over shard partials: it
// replays the rows in ascending global document order (a k-way merge of
// the already ascending per-shard rows) — the exact float operation
// sequence of the monolithic accumulation — selects the same shortlist,
// fetches every shard's diversity sets for exactly that shortlist via
// fetchSets (one DiversityPartial per shard, each with one set per
// shortlisted concept), and ranks with DrillDownPage's ranking, counting
// each concept's union across shards. The graph must be the one the
// shards were built on. Partials at differing generations yield
// ErrGenerationSkew; concept or entity IDs outside the graph, or a
// diversity answer of the wrong length, yield ErrFrame.
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
	if opts.K <= 0 || opts.Offset < 0 {
		return page, nil
	}
	numNodes := g.NumNodes()
	sc, _ := routerScratch.Get().(*queryScratch)
	if sc == nil || len(sc.stamp) < numNodes {
		sc = newQueryScratch(numNodes)
	}
	defer routerScratch.Put(sc)

	// Replay the accumulation: documents ascending, concepts in stored
	// per-document order — the exact float addition sequence
	// DrillDownPage executes over the monolithic snapshot.
	covMark, _ := sc.marks()
	touched := sc.touched[:0]
	cursors := sc.cursors[:0]
	for range parts {
		cursors = append(cursors, 0)
	}
	sc.cursors = cursors
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
			if sc.stamp[c] != covMark {
				sc.stamp[c] = covMark
				sc.cov[c], sc.cnt[c] = 0, 0
				touched = append(touched, c)
			}
			sc.cov[c] += row.CDRs[j]
			sc.cnt[c]++
		}
	}
	sc.touched = touched
	if len(touched) == 0 {
		return page, nil
	}

	short := sc.shortlist(touched, g.SpecTable(), opts)
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
		for _, set := range d.Sets {
			for _, v := range set {
				if v < 0 || int(v) >= numNodes {
					return DrillDownPage{}, fmt.Errorf("%w: entity %d outside the graph", ErrFrame, v)
				}
			}
		}
	}
	// Count each shortlisted concept's union across the shards' sets on
	// sc's stamp. The stamp no longer decides the accumulators: rank
	// reads them only for shortlisted concepts.
	union := sc.union[:0]
	for i := range short {
		seen, _ := sc.marks()
		n := int32(0)
		for _, d := range divs {
			for _, v := range d.Sets[i] {
				if sc.stamp[v] != seen {
					sc.stamp[v] = seen
					n++
				}
			}
		}
		union = append(union, n)
	}
	sc.union = union
	sc.rank(g, opts, &page)
	return page, nil
}
