package relevance

import (
	"math"
	"sync"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/xrand"
)

// fakeView is a hand-built DocView.
type fakeView struct {
	entities map[int32][]kg.NodeID
	weights  map[int32]map[kg.NodeID]float64
}

func (f *fakeView) Entities(doc int32) []kg.NodeID { return f.entities[doc] }
func (f *fakeView) EntityWeight(v kg.NodeID, doc int32) float64 {
	return f.weights[doc][v]
}
func (f *fakeView) ContextWeight(v kg.NodeID, doc int32) float64 {
	return f.weights[doc][v]
}

// testWorld builds:
//
//	concepts: Broad ← Narrow ; Other
//	instances: ftx, binance ∈ Narrow; court ∈ Other; nowhere ∈ Other
//	edges: ftx—court, binance—court (so court is 1 hop from the
//	Narrow extent), nowhere isolated.
//	doc 0: {ftx, court};  doc 1: {court, nowhere};  doc 2: {binance}
func testWorld(t testing.TB) (*kg.Graph, *fakeView, map[string]kg.NodeID) {
	t.Helper()
	b := kg.NewBuilder()
	ids := map[string]kg.NodeID{}
	ids["Broad"] = b.AddConcept("Broad")
	ids["Narrow"] = b.AddConcept("Narrow")
	ids["Other"] = b.AddConcept("Other")
	b.AddBroader(ids["Narrow"], ids["Broad"])
	for _, n := range []string{"ftx", "binance", "court", "nowhere"} {
		ids[n] = b.AddInstance(n)
	}
	b.AddType(ids["ftx"], ids["Narrow"])
	b.AddType(ids["binance"], ids["Narrow"])
	b.AddType(ids["court"], ids["Other"])
	b.AddType(ids["nowhere"], ids["Other"])
	b.AddInstanceEdge(ids["ftx"], ids["court"])
	b.AddInstanceEdge(ids["binance"], ids["court"])
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	view := &fakeView{
		entities: map[int32][]kg.NodeID{
			0: {ids["ftx"], ids["court"]},
			1: {ids["court"], ids["nowhere"]},
			2: {ids["binance"]},
		},
		weights: map[int32]map[kg.NodeID]float64{
			0: {ids["ftx"]: 0.8, ids["court"]: 0.3},
			1: {ids["court"]: 0.6, ids["nowhere"]: 0.2},
			2: {ids["binance"]: 0.9},
		},
	}
	return g, view, ids
}

func newScorer(g *kg.Graph, view DocView, exact bool) *Scorer {
	opts := Options{Tau: 2, Beta: 0.5, Samples: 2000, Exact: exact}
	var ix *reach.Index
	if !exact {
		ix = reach.New(g, 2)
	}
	return NewScorer(g, view, ix, opts)
}

func TestMatchesViaClosure(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	// Narrow matches doc 0 directly; Broad matches through its child.
	if !s.Matches(ids["Narrow"], 0) {
		t.Error("Narrow should match doc 0")
	}
	if !s.Matches(ids["Broad"], 0) {
		t.Error("Broad should match doc 0 via closure")
	}
	if s.Matches(ids["Narrow"], 1) {
		t.Error("Narrow should not match doc 1")
	}
}

func TestSplit(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	matched, context := s.Split(ids["Narrow"], 0)
	if len(matched) != 1 || matched[0] != ids["ftx"] {
		t.Errorf("ME = %v", matched)
	}
	if len(context) != 1 || context[0] != ids["court"] {
		t.Errorf("CE = %v", context)
	}
}

func TestOntologyRel(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	// Narrow: |Ψ| = 2 of 4 instances ⇒ spec = log 2; pivot ftx (0.8).
	got, pivot := s.OntologyRel(ids["Narrow"], 0)
	want := math.Log(2) * 0.8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cdro = %v, want %v", got, want)
	}
	if pivot != ids["ftx"] {
		t.Errorf("pivot = %v", pivot)
	}
	// No match ⇒ 0.
	if got, _ := s.OntologyRel(ids["Narrow"], 1); got != 0 {
		t.Errorf("unmatched cdro = %v", got)
	}
	// Other matches doc 1 twice: pivot must be the higher-weighted.
	_, pivot = s.OntologyRel(ids["Other"], 1)
	if pivot != ids["court"] {
		t.Errorf("pivot = %v, want court", pivot)
	}
}

func TestSpecificityPenalisesBroadConcepts(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	narrow, _ := s.OntologyRel(ids["Narrow"], 0)
	// Broad's direct extent is empty; its closure (= Narrow's extent)
	// backs the specificity, so it scores the same here — but a concept
	// with a *larger* closure must score lower. Use Other (2 instances,
	// same size) vs a synthetic comparison via doc 1.
	broad, _ := s.OntologyRel(ids["Broad"], 0)
	if broad > narrow+1e-12 {
		t.Errorf("Broad (%v) should not outscore Narrow (%v)", broad, narrow)
	}
}

func TestConnExact(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	// conn(Narrow, doc0): CE = {court}. S(Narrow, court):
	//   ftx: 1-hop path (β=0.5) + 2-hop ftx-?-court: ftx's only
	//        neighbour is court ⇒ none ⇒ 0.5
	//   binance: symmetric ⇒ 0.5
	//   wait: 2-hop ftx→binance? ftx—binance not an edge. So S = 1.0.
	got := s.Conn(ids["Narrow"], 0, nil)
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("conn = %v, want 1.0", got)
	}
	// cdrc = 1 - 1/(1+1) = 0.5
	if cdrc := s.ContextRel(ids["Narrow"], 0, nil); math.Abs(cdrc-0.5) > 1e-12 {
		t.Errorf("cdrc = %v, want 0.5", cdrc)
	}
}

func TestConnSampledAgreesWithExact(t *testing.T) {
	g, view, ids := testWorld(t)
	exact := newScorer(g, view, true)
	sampled := newScorer(g, view, false)
	rnd := xrand.New(42)
	for _, doc := range []int32{0, 1, 2} {
		for _, c := range []kg.NodeID{ids["Narrow"], ids["Broad"], ids["Other"]} {
			want := exact.Conn(c, doc, nil)
			got := sampled.Conn(c, doc, rnd)
			if want == 0 {
				if got != 0 {
					t.Errorf("doc %d concept %v: sampled %v, exact 0", doc, c, got)
				}
				continue
			}
			if math.Abs(got-want)/want > 0.15 {
				t.Errorf("doc %d concept %v: sampled %v vs exact %v", doc, c, got, want)
			}
		}
	}
}

func TestIsolatedContextGivesZeroConn(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	// doc 2 has only binance ∈ Narrow: no context entities at all.
	if got := s.Conn(ids["Narrow"], 2, nil); got != 0 {
		t.Errorf("conn with empty CE = %v", got)
	}
	// Other on doc 2: binance is context but Other's extent = {court,
	// nowhere}; S(Other, binance) = paths court→binance (1 hop) +
	// nowhere→binance (none) = 0.5.
	if got := s.Conn(ids["Other"], 2, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("conn = %v, want 0.5", got)
	}
}

func TestConnToScore(t *testing.T) {
	cases := map[float64]float64{0: 0, 1: 0.5, 3: 0.75, -2: 0}
	for in, want := range cases {
		if got := ConnToScore(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("ConnToScore(%v) = %v, want %v", in, got, want)
		}
	}
	if s := ConnToScore(1e12); s >= 1 {
		t.Error("score must stay below 1")
	}
}

func TestCDRAndRel(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	cdr, pivot := s.CDR(ids["Narrow"], 0, nil)
	want := math.Log(2) * 0.8 * 0.5
	if math.Abs(cdr-want) > 1e-12 {
		t.Errorf("cdr = %v, want %v", cdr, want)
	}
	if pivot != ids["ftx"] {
		t.Errorf("pivot = %v", pivot)
	}
	if cdr, _ := s.CDR(ids["Narrow"], 1, nil); cdr != 0 {
		t.Errorf("unmatched cdr = %v", cdr)
	}
	rel := s.Rel([]kg.NodeID{ids["Narrow"], ids["Other"]}, 0, nil)
	cdrOther, _ := s.CDR(ids["Other"], 0, nil)
	if math.Abs(rel-(want+cdrOther)) > 1e-12 {
		t.Errorf("rel = %v, want %v", rel, want+cdrOther)
	}
}

func TestMaxContextTruncation(t *testing.T) {
	// Build a doc with many context entities; MaxContext=2 must keep
	// the two highest-weighted.
	g, view, ids := testWorld(t)
	view.entities[3] = []kg.NodeID{ids["ftx"], ids["court"], ids["nowhere"], ids["binance"]}
	view.weights[3] = map[kg.NodeID]float64{
		ids["ftx"]: 0.9, ids["court"]: 0.8, ids["nowhere"]: 0.1, ids["binance"]: 0.7,
	}
	s := NewScorer(g, view, nil, Options{Tau: 2, Beta: 0.5, MaxContext: 1, Exact: true})
	// For concept Other on doc 3: ME = {court, nowhere}, CE = {ftx,
	// binance}; MaxContext=1 keeps ftx (0.9).
	// S(Other, ftx) = paths from {court, nowhere} to ftx ≤ 2 hops:
	// court-ftx (0.5) + court-binance-ftx? binance—ftx missing ⇒ 0.5.
	got := s.Conn(ids["Other"], 3, nil)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("truncated conn = %v, want 0.5", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Tau != 2 || o.Beta != 0.5 || o.Samples != 50 || o.MaxContext != 8 || o.MaxExtent != 4000 {
		t.Errorf("defaults = %+v", o)
	}
}

func BenchmarkCDRSampled(b *testing.B) {
	g, view, ids := testWorld(b)
	s := NewScorer(g, view, reach.New(g, 2), Options{Samples: 50})
	rnd := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CDR(ids["Narrow"], 0, rnd)
	}
}

// TestSplitScratchReuse pins the documented contract: Split's returned
// slices are scorer-owned scratch, overwritten by the next call and
// allocation-free in steady state.
func TestSplitScratchReuse(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	matched, _ := s.Split(ids["Narrow"], 0)
	if len(matched) != 1 || matched[0] != ids["ftx"] {
		t.Fatalf("ME = %v", matched)
	}
	s.Split(ids["Other"], 1) // overwrites the scratch
	if matched[0] == ids["ftx"] {
		t.Fatal("scratch was not reused — the zero-alloc contract is not exercised")
	}
	s.Split(ids["Narrow"], 0) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		s.Split(ids["Narrow"], 0)
	})
	if allocs != 0 {
		t.Fatalf("warm Split allocated %.1f/op", allocs)
	}
}

// TestConnCapSoundness: the closed-form cap must dominate conn for
// every (concept, doc) pair under both exact counting and sampling.
func TestConnCapSoundness(t *testing.T) {
	g, view, ids := testWorld(t)
	maxDeg := 0
	g.Instances(func(v kg.NodeID) bool {
		if d := g.InstanceDegree(v); d > maxDeg {
			maxDeg = d
		}
		return true
	})
	for _, exact := range []bool{true, false} {
		s := newScorer(g, view, exact)
		rnd := xrand.New(7)
		for _, c := range []string{"Broad", "Narrow", "Other"} {
			ext, _ := s.Extent(ids[c])
			cap := ConnCap(len(ext), maxDeg, s.Options().Tau, s.Options().Beta)
			for doc := int32(0); doc < 3; doc++ {
				if conn := s.Conn(ids[c], doc, rnd); conn > cap {
					t.Errorf("exact=%v concept %s doc %d: conn %v exceeds cap %v",
						exact, c, doc, conn, cap)
				}
			}
		}
	}
}

func TestConnCapClosedForm(t *testing.T) {
	// τ=2, β=0.5, Δ=3, |Ψ|=4: 4·(0.5·3 + 0.25·9) = 15.
	if got := ConnCap(4, 3, 2, 0.5); math.Abs(got-15) > 1e-12 {
		t.Fatalf("ConnCap = %v, want 15", got)
	}
	if got := ConnCap(0, 3, 2, 0.5); got != 0 {
		t.Fatalf("empty extent cap = %v, want 0", got)
	}
}

// TestSharedExtentCache: scorers sharing an ExtentCache see identical
// immutable extents.
func TestSharedExtentCache(t *testing.T) {
	g, view, ids := testWorld(t)
	cache := NewExtentCache(g, 0)
	mk := func() *Scorer {
		return NewScorer(g, view, nil, Options{Exact: true, Extents: cache})
	}
	a, b := mk(), mk()
	listA, setA := a.Extent(ids["Broad"])
	listB, setB := b.Extent(ids["Broad"])
	if &listA[0] != &listB[0] {
		t.Fatal("shared cache returned distinct extent copies")
	}
	if len(setA) != len(setB) || len(listA) != len(setA) {
		t.Fatalf("set/list mismatch: %d/%d/%d", len(listA), len(setA), len(setB))
	}
}

// TestExtentCacheConcurrentMisses: goroutines missing the same concept
// at once all receive the one stored entry, and the cache's cap binds
// every scorer that shares it.
func TestExtentCacheConcurrentMisses(t *testing.T) {
	g, view, ids := testWorld(t)
	cache := NewExtentCache(g, 1)
	const n = 8
	lists := make([][]kg.NodeID, n)
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lists[i], _ = cache.Extent(ids["Broad"])
		}(i)
	}
	wg.Wait()
	for i, l := range lists {
		if len(l) != 1 || &l[0] != &lists[0][0] {
			t.Fatalf("caller %d got %v, want the one stored 1-entity extent %v", i, l, lists[0])
		}
	}
	s := NewScorer(g, view, nil, Options{Exact: true, MaxExtent: 50, Extents: cache})
	if got := s.Options().MaxExtent; got != 1 {
		t.Fatalf("scorer MaxExtent = %d, want the shared cache's cap 1", got)
	}
	if ext, _ := s.Extent(ids["Broad"]); &ext[0] != &lists[0][0] {
		t.Fatal("scorer recomputed an extent its shared cache holds")
	}
}

func TestPairScoreMatchesConnParts(t *testing.T) {
	g, view, ids := testWorld(t)
	s := newScorer(g, view, true)
	ext, _ := s.Extent(ids["Narrow"])
	// court is 1 hop from both extent members: S = 2·β.
	if got := s.PairScore(ext, ids["court"], nil); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("PairScore = %v, want 1.0", got)
	}
}
