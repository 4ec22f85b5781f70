package rw

import (
	"math"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/paths"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/xrand"
)

func randomGraph(t testing.TB, seed uint64, n, edges int) (*kg.Graph, []kg.NodeID) {
	t.Helper()
	r := xrand.New(seed)
	b := kg.NewBuilder()
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = b.AddInstance("v" + string(rune('A'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+(i/676)%10)))
	}
	for e := 0; e < edges; e++ {
		b.AddInstanceEdge(ids[r.Intn(n)], ids[r.Intn(n)])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// TestUnbiasedness is the core correctness property (the paper proves
// it in the full report; we verify empirically): for both guided and
// unguided walks, the sample mean converges to the exact weighted path
// count Σ_l β^l |paths^⟨l⟩(u,v)|.
func TestUnbiasedness(t *testing.T) {
	const tau = 3
	const beta = 0.5
	for seed := uint64(1); seed <= 6; seed++ {
		g, ids := randomGraph(t, seed, 16, 40)
		counter := paths.NewCounter(g)
		ix := reach.New(g, tau)
		guided := New(g, ix, tau, beta)
		unguided := New(g, nil, tau, beta)
		r := xrand.New(seed * 977)

		checked := 0
		for trial := 0; trial < 12 && checked < 4; trial++ {
			u := ids[r.Intn(len(ids))]
			v := ids[r.Intn(len(ids))]
			exact := counter.WeightedCount(u, v, tau, beta)
			if exact == 0 {
				continue // pick pairs with signal
			}
			checked++
			const samples = 60000
			gu := guided.EstimateConcept(r, []kg.NodeID{u}, v, samples)
			un := unguided.EstimateConcept(r, []kg.NodeID{u}, v, samples)
			for name, got := range map[string]float64{"guided": gu, "unguided": un} {
				relErr := math.Abs(got-exact) / exact
				if relErr > 0.12 {
					t.Errorf("seed %d %s estimate %v vs exact %v (rel err %.3f)",
						seed, name, got, exact, relErr)
				}
			}
		}
		if checked == 0 {
			t.Logf("seed %d: no connected pairs sampled (sparse graph)", seed)
		}
	}
}

func TestZeroWhenUnreachable(t *testing.T) {
	b := kg.NewBuilder()
	x := b.AddInstance("x")
	y := b.AddInstance("y")
	z := b.AddInstance("z")
	b.AddInstanceEdge(x, y)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	est := New(g, reach.New(g, 2), 2, 0.5)
	r := xrand.New(1)
	if got := est.EstimateConcept(r, []kg.NodeID{x}, z, 500); got != 0 {
		t.Errorf("unreachable pair estimated %v", got)
	}
	if got := est.EstimateConcept(r, []kg.NodeID{x}, x, 1); got != 0 {
		t.Errorf("self pair walked to %v", got)
	}
}

func TestSingleEdgeExact(t *testing.T) {
	// u—v with no other nodes: every walk must find the single 1-hop
	// path, so every sample equals β·1 exactly — zero variance.
	b := kg.NewBuilder()
	u := b.AddInstance("u")
	v := b.AddInstance("v")
	b.AddInstanceEdge(u, v)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	est := New(g, nil, 2, 0.5)
	r := xrand.New(2)
	for i := 0; i < 100; i++ {
		if got := est.EstimateConcept(r, []kg.NodeID{u}, v, 1); got != 0.5 {
			t.Fatalf("walk = %v, want 0.5", got)
		}
	}
}

func TestGuidanceReducesVariance(t *testing.T) {
	// On a graph with many dead-end branches, guided walks should have
	// materially lower variance (the Fig. 7 effect).
	b := kg.NewBuilder()
	u := b.AddInstance("u")
	v := b.AddInstance("v")
	mid := b.AddInstance("mid")
	b.AddInstanceEdge(u, mid)
	b.AddInstanceEdge(mid, v)
	for i := 0; i < 20; i++ {
		dead := b.AddInstance("dead" + string(rune('a'+i)))
		b.AddInstanceEdge(u, dead) // dead ends off the source
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const tau = 2
	const beta = 0.5
	exact := paths.NewCounter(g).WeightedCount(u, v, tau, beta)
	if exact == 0 {
		t.Fatal("setup broken")
	}
	guided := New(g, reach.New(g, tau), tau, beta)
	unguided := New(g, nil, tau, beta)

	varOf := func(e *Estimator, seed uint64) float64 {
		r := xrand.New(seed)
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := e.EstimateConcept(r, []kg.NodeID{u}, v, 1)
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	vg, vu := varOf(guided, 3), varOf(unguided, 3)
	if vg >= vu {
		t.Errorf("guided variance %v should be below unguided %v", vg, vu)
	}
	if vg != 0 {
		// With guidance the only eligible first step is mid ⇒ N=1
		// throughout ⇒ deterministic sample.
		t.Errorf("guided variance = %v, want 0 on this topology", vg)
	}
}

func TestEstimateConceptScaling(t *testing.T) {
	// ext = {u1, u2}, both one hop from v. Exact S = β·(1+1) = 1.0 at
	// β=0.5. The estimator draws u uniformly and scales by |ext|.
	b := kg.NewBuilder()
	u1 := b.AddInstance("u1")
	u2 := b.AddInstance("u2")
	v := b.AddInstance("v")
	b.AddInstanceEdge(u1, v)
	b.AddInstanceEdge(u2, v)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	est := New(g, reach.New(g, 2), 2, 0.5)
	r := xrand.New(4)
	got := est.EstimateConcept(r, []kg.NodeID{u1, u2}, v, 30000)
	// Exact: Σ over u∈ext of WeightedCount(u, v):
	// u1: path u1-v (β) and u1-v? 2-hop u1-u?-v: u1's neighbours = {v}
	// only ⇒ 0.5. Same for u2. Total 1.0.
	if math.Abs(got-1.0) > 0.05 {
		t.Errorf("concept estimate = %v, want ≈1.0", got)
	}
	if est.EstimateConcept(r, nil, v, 100) != 0 {
		t.Error("empty extent should estimate 0")
	}
}

func TestEligibleSourceSamplingUnbiasedAndFaster(t *testing.T) {
	// Extent with one reachable source among many unreachable ones:
	// guided estimates must stay unbiased (match exact) and converge
	// with far fewer samples than unguided.
	b := kg.NewBuilder()
	u := b.AddInstance("u")
	v := b.AddInstance("v")
	b.AddInstanceEdge(u, v)
	ext := []kg.NodeID{u}
	for i := 0; i < 30; i++ {
		far := b.AddInstance("far" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		other := b.AddInstance("oth" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		b.AddInstanceEdge(far, other) // connected, but not to v
		ext = append(ext, far)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const tau, beta = 2, 0.5
	exact := paths.NewCounter(g)
	want := 0.0
	for _, s := range ext {
		want += exact.WeightedCount(s, v, tau, beta)
	}
	guided := New(g, reach.New(g, tau), tau, beta)
	unguided := New(g, nil, tau, beta)
	r := xrand.New(11)
	// Guided: pool collapses to {u}; even 10 samples are exact here.
	if got := guided.EstimateConcept(r, []kg.NodeID{u}, v, 1); got == 0 {
		t.Fatal("sanity: u reaches v")
	}
	got := guided.EstimateConcept(r, ext, v, 10)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("guided estimate %v, want %v", got, want)
	}
	// Unguided stays unbiased but needs many samples.
	got = unguided.EstimateConcept(r, ext, v, 40000)
	if want == 0 || math.Abs(got-want)/want > 0.15 {
		t.Fatalf("unguided estimate %v, want ≈%v", got, want)
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	g, _ := randomGraph(t, 1, 4, 4)
	for _, fn := range []func(){
		func() { New(g, nil, 0, 0.5) },
		func() { New(g, nil, 2, 0) },
		func() { New(g, nil, 2, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g, ids := randomGraph(t, 5, 20, 50)
	est := New(g, reach.New(g, 2), 2, 0.5)
	a := est.EstimateConcept(xrand.New(7), []kg.NodeID{ids[0]}, ids[5], 200)
	bv := est.EstimateConcept(xrand.New(7), []kg.NodeID{ids[0]}, ids[5], 200)
	if a != bv {
		t.Fatalf("estimates differ: %v vs %v", a, bv)
	}
}

// BenchmarkEstimateConceptGuided is the ingest hot path in miniature:
// one S(c, v) estimate per op, the target changing every op so each
// one un-paints the previous table, looks the next one up and paints
// it. Steady state allocates nothing: tables are cached and the dense
// scratch is the estimator's own.
func BenchmarkEstimateConceptGuided(b *testing.B) {
	g, ids := randomGraph(b, 1, 2000, 8000)
	est := New(g, reach.New(g, 2), 2, 0.5)
	r := xrand.New(1)
	ext, targets := ids[:200], ids[200:264]
	for _, v := range targets {
		est.EstimateConcept(r, ext, v, 50) // build the tables, size the scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EstimateConcept(r, ext, targets[i%len(targets)], 50)
	}
}

// TestEstimateConceptAllocatesNothingWarm pins the steady state the
// benchmark above reports: once the tables are built and the scratch
// sized, estimates with a changing target allocate nothing, guided or
// not.
func TestEstimateConceptAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops scratch arrays at random")
	}
	g, ids := randomGraph(t, 1, 2000, 8000)
	ext, targets := ids[:200], ids[200:264]
	for _, ix := range []*reach.Index{reach.New(g, 2), nil} {
		est := New(g, ix, 2, 0.5)
		r := xrand.New(1)
		for _, v := range targets {
			est.EstimateConcept(r, ext, v, 50)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			est.EstimateConcept(r, ext, targets[i%len(targets)], 50)
			i++
		})
		if allocs != 0 {
			t.Errorf("guided %v: %v allocs per warm estimate, want 0", ix != nil, allocs)
		}
	}
}
