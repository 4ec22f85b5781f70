package core

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
)

// definedConcept is one touched concept of a drill-down as Definition 2
// states it, over D(Q ∪ {c}): the documents of D(Q) (inside the window)
// that have c as a kept candidate.
type definedConcept struct {
	coverage float64
	matched  int
	members  map[kg.NodeID]bool // ∪ ME(c, d): the documents' entities in Ψ(c)
}

// drillDownByDefinition computes Definition 2's per-concept inputs with
// maps and no engine scratch: each touched concept's coverage (summed in
// ascending document order, candidates in stored order — the sequence
// that defines the float), MatchedDocs, and direct-extent member set.
func drillDownByDefinition(e *Engine, q Query, tr *TimeRange) map[kg.NodeID]*definedConcept {
	g := e.Graph()
	inQ := make(map[kg.NodeID]bool, len(q))
	for _, c := range q {
		inQ[c] = true
	}
	direct := make(map[kg.NodeID]map[kg.NodeID]bool)
	out := make(map[kg.NodeID]*definedConcept)
	for _, doc := range e.MatchedDocs(q) {
		if tr != nil && (e.Doc(doc).PublishedAt < tr.Min || e.Doc(doc).PublishedAt > tr.Max) {
			continue
		}
		for _, cs := range e.DocConcepts(doc) {
			c := cs.Concept
			if inQ[c] {
				continue
			}
			dc := out[c]
			if dc == nil {
				dc = &definedConcept{members: make(map[kg.NodeID]bool)}
				out[c] = dc
			}
			dc.coverage += cs.CDR
			dc.matched++
			ext := direct[c]
			if ext == nil {
				ext = make(map[kg.NodeID]bool)
				for _, v := range g.Extent(c) {
					ext[v] = true
				}
				direct[c] = ext
			}
			for _, v := range e.Entities(int32(doc)) {
				if ext[v] {
					dc.members[v] = true
				}
			}
		}
	}
	return out
}

// definedPage ranks the definition's concepts the way the paper's
// drill-down pages them at K = 128 (the whole shortlist): the 128 best
// by coverage (× specificity), concept ID breaking ties, then by
// coverage · specificity · diversity, shortlist order breaking ties.
func definedPage(g *kg.Graph, def map[kg.NodeID]*definedConcept, opts DrillDownOptions) []Subtopic {
	spec := g.SpecTable()
	var subs []Subtopic
	cheap := make(map[kg.NodeID]float64, len(def))
	for c, dc := range def {
		s := dc.coverage
		if !opts.NoSpecificity {
			s *= spec[c]
		}
		cheap[c] = s
		subs = append(subs, Subtopic{
			Concept: c, Coverage: dc.coverage, Specificity: spec[c], MatchedDocs: dc.matched,
			Diversity: float64(len(dc.members)) / float64(dc.matched),
		})
	}
	slices.SortFunc(subs, func(a, b Subtopic) int {
		return cmp.Or(cmp.Compare(cheap[b.Concept], cheap[a.Concept]), cmp.Compare(a.Concept, b.Concept))
	})
	subs = subs[:min(len(subs), 128)]
	for i := range subs {
		subs[i].Score = subs[i].Coverage
		if !opts.NoSpecificity {
			subs[i].Score *= subs[i].Specificity
		}
		if !opts.NoDiversity {
			subs[i].Score *= subs[i].Diversity
		}
	}
	slices.SortStableFunc(subs, func(a, b Subtopic) int { return cmp.Compare(b.Score, a.Score) })
	return subs
}

// checkDrillDownDefinition compares DrillDownPage at K = 128 and
// DiversityPartials' sets for every touched concept with the definition.
func checkDrillDownDefinition(t *testing.T, e *Engine, q Query, tr *TimeRange) {
	t.Helper()
	ctx := context.Background()
	def := drillDownByDefinition(e, q, tr)
	for _, toggles := range []DrillDownOptions{{}, {NoSpecificity: true}, {NoDiversity: true}} {
		opts := toggles
		opts.K, opts.Time = 128, tr
		page, err := e.DrillDownPage(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := definedPage(e.Graph(), def, toggles)
		if page.Total != len(want) || !reflect.DeepEqual(page.Results, want) {
			t.Fatalf("drill-down %v window %v toggles %+v departs from Definition 2:\n got (total %d): %+v\nwant (total %d): %+v",
				q, tr, toggles, page.Total, page.Results, len(want), want)
		}
	}
	// Every touched concept's set, plus a concept no document touches
	// (a query concept never is a candidate) and one outside the graph.
	concepts := make([]kg.NodeID, 0, len(def)+2)
	for c := range def {
		concepts = append(concepts, c)
	}
	slices.Sort(concepts)
	concepts = append(concepts, q[0], kg.NodeID(e.Graph().NumNodes()))
	div, err := e.DiversityPartials(ctx, q, concepts, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range concepts {
		var want []kg.NodeID
		if dc := def[c]; dc != nil {
			for v := range dc.members {
				want = append(want, v)
			}
			slices.Sort(want)
		}
		if !reflect.DeepEqual(div.Sets[i], want) {
			t.Fatalf("drill-down %v window %v: diversity set of %d is %v, want %v", q, tr, c, div.Sets[i], want)
		}
	}
}

// TestDrillDownMatchesDefinition holds the drill-down to Definition 2
// computed with maps: coverage, MatchedDocs, diversity over
// D(Q ∪ {c}) with the direct extent Ψ(c), the shortlist and the
// ranking, and each concept's diversity set. On the tiny world it runs
// every topic's single- and two-concept query, with and without a time
// window; on the default world (where the per-document candidate cap
// bites) the 20 broadest concepts.
func TestDrillDownMatchesDefinition(t *testing.T) {
	_, meta, _, e := world(t)
	for _, tr := range []*TimeRange{nil, midSpanWindow(e)} {
		for _, topic := range meta.Topics {
			checkDrillDownDefinition(t, e, Query{topic.Concept}, tr)
			checkDrillDownDefinition(t, e, Query{topic.Concept, topic.GroupConcept}, tr)
		}
	}
	if testing.Short() {
		return
	}
	g, dmeta := kggen.MustGenerate(kggen.Default())
	big := NewEngine(g, Options{Seed: 11, Samples: 20})
	big.IndexCorpus(corpus.MustGenerate(g, dmeta, corpus.Default()))
	for _, c := range broadestConcepts(big, 20) {
		checkDrillDownDefinition(t, big, Query{c}, nil)
	}
}

// broadestConcepts returns the n concepts matching the most documents
// (concept ID breaking ties).
func broadestConcepts(e *Engine, n int) []kg.NodeID {
	type broad struct {
		c    kg.NodeID
		docs int
	}
	var all []broad
	e.Graph().Concepts(func(c kg.NodeID) bool {
		all = append(all, broad{c, len(e.MatchedDocs(Query{c}))})
		return true
	})
	slices.SortFunc(all, func(a, b broad) int {
		return cmp.Or(cmp.Compare(b.docs, a.docs), cmp.Compare(a.c, b.c))
	})
	out := make([]kg.NodeID, 0, n)
	for _, b := range all[:min(n, len(all))] {
		out = append(out, b.c)
	}
	return out
}
