package rw

import (
	"math"
	"sync"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/xrand"
)

// refEstimator is the estimator as it was when the reachability index
// held one dense []int16 per target and every sample scanned every
// neighbour list it met: same eligibility rules, same order of random
// draws, distances read from a test-local dense BFS table (or none,
// unguided). The production estimator must reproduce its sample
// sequences bit for bit — that is what "painting a sparse table" and
// "memoising first hops" change no answer means.
type refEstimator struct {
	g      *kg.Graph
	tau    int
	beta   float64
	guided bool
	tables map[kg.NodeID][]int16
}

func newRef(g *kg.Graph, tau int, beta float64, guided bool) *refEstimator {
	return &refEstimator{g: g, tau: tau, beta: beta, guided: guided, tables: make(map[kg.NodeID][]int16)}
}

// distTo returns v's dense distance table, or nil unguided.
func (e *refEstimator) distTo(v kg.NodeID) []int16 {
	if !e.guided {
		return nil
	}
	if d, ok := e.tables[v]; ok {
		return d
	}
	d := make([]int16, e.g.NumNodes())
	for i := range d {
		d[i] = reach.Unreachable
	}
	d[v] = 0
	frontier := []kg.NodeID{v}
	for depth := 1; depth <= e.tau; depth++ {
		var next []kg.NodeID
		for _, x := range frontier {
			for _, y := range e.g.InstanceNeighbors(x) {
				if d[y] == reach.Unreachable {
					d[y] = int16(depth)
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	e.tables[v] = d
	return d
}

func (e *refEstimator) Walk(r *xrand.Rand, u, v kg.NodeID) float64 {
	if u == v {
		return 0
	}
	dist := e.distTo(v)
	if dist != nil && dist[u] == reach.Unreachable {
		return 0
	}
	visited := map[kg.NodeID]bool{u: true}
	cur := u
	prod := 1.0
	for l := 1; l <= e.tau; l++ {
		remaining := e.tau - l
		var eligible []kg.NodeID
		for _, y := range e.g.InstanceNeighbors(cur) {
			if y == v {
				eligible = append(eligible, y)
				continue
			}
			if remaining == 0 || visited[y] {
				continue
			}
			if dist != nil {
				if d := dist[y]; d == reach.Unreachable || int(d) > remaining {
					continue
				}
			}
			eligible = append(eligible, y)
		}
		n := len(eligible)
		if n == 0 {
			return 0
		}
		prod *= float64(n)
		next := eligible[r.Intn(n)]
		if next == v {
			return pow(e.beta, l) * prod
		}
		visited[next] = true
		cur = next
	}
	return 0
}

func (e *refEstimator) EstimateConcept(r *xrand.Rand, ext []kg.NodeID, v kg.NodeID, n int) float64 {
	pool := ext
	if dist := e.distTo(v); dist != nil {
		pool = nil
		for _, u := range ext {
			if d := dist[u]; d != reach.Unreachable && int(d) <= e.tau && u != v {
				pool = append(pool, u)
			}
		}
	}
	if len(pool) == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		u := pool[r.Intn(len(pool))]
		sum += float64(len(pool)) * e.Walk(r, u, v)
	}
	return sum / float64(n)
}

// replay drives est and a fresh reference (guided iff est is) through
// the same seeded mix of one-source and many-source EstimateConcept calls
// and reports the first divergence. Targets cycle A, B, A, C, B, …: the
// estimator keeps the last target painted, so a mark that un-painting A
// left behind would make some node look eligible (or some source look
// in range) under B and change a sample — or shift the random stream,
// which the final draw comparison catches. The 50-sample estimates over
// at most 12 sources, the target among them at a random slot, redraw
// most sources several times: a first-hop list kept from an earlier
// estimate, or a walk from the target itself, shows there.
func replay(est *Estimator, g *kg.Graph, tau int, beta float64, ids []kg.NodeID, seed uint64, steps int) (step int, got, want float64, ok bool) {
	ref := newRef(g, tau, beta, est.index != nil)
	plan := xrand.New(seed)
	r1, r2 := xrand.New(seed^0x9e37), xrand.New(seed^0x9e37)
	targets := make([]kg.NodeID, 3)
	for i := range targets {
		targets[i] = ids[plan.Intn(len(ids))]
	}
	for step = 0; step < steps; step++ {
		v := targets[[]int{0, 1, 0, 2, 1}[step%5]]
		if step%17 == 16 { // rotate one target so the set keeps moving
			targets[plan.Intn(3)] = ids[plan.Intn(len(ids))]
		}
		switch plan.Intn(4) {
		case 0:
			ext := []kg.NodeID{ids[plan.Intn(len(ids))]}
			got, want = est.EstimateConcept(r1, ext, v, 1), ref.EstimateConcept(r2, ext, v, 1)
		case 1:
			ext := []kg.NodeID{ids[plan.Intn(len(ids))]}
			got, want = est.EstimateConcept(r1, ext, v, 5), ref.EstimateConcept(r2, ext, v, 5)
		case 2:
			ext := make([]kg.NodeID, 1+plan.Intn(12))
			for i := range ext {
				ext[i] = ids[plan.Intn(len(ids))]
			}
			ext[0] = v // the target itself must be filtered from the pool
			got, want = est.EstimateConcept(r1, ext, v, 8), ref.EstimateConcept(r2, ext, v, 8)
		default:
			ext := make([]kg.NodeID, 2+plan.Intn(11))
			for i := range ext {
				ext[i] = ids[plan.Intn(len(ids))]
			}
			ext[plan.Intn(len(ext))] = v
			got, want = est.EstimateConcept(r1, ext, v, 50), ref.EstimateConcept(r2, ext, v, 50)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			return step, got, want, false
		}
	}
	if a, b := r1.Uint64(), r2.Uint64(); a != b {
		return steps, float64(a), float64(b), false
	}
	return steps, 0, 0, true
}

// TestGuidedMatchesDenseReference: for fixed seeds, the sample sequences
// of guided EstimateConcept calls equal the dense
// reference bit for bit, with targets interleaved so stale paint would
// show, across Release (which must hand back a clean scratch and leave
// the estimator usable).
func TestGuidedMatchesDenseReference(t *testing.T) {
	const beta = 0.5
	for tau := 1; tau <= 3; tau++ {
		for seed := uint64(1); seed <= 5; seed++ {
			g, ids := randomGraph(t, seed, 60, 150)
			ix := reach.New(g, tau)
			est := New(g, ix, tau, beta)
			for round := uint64(0); round < 2; round++ {
				if step, got, want, ok := replay(est, g, tau, beta, ids, seed*31+round, 400); !ok {
					t.Fatalf("tau %d seed %d round %d step %d: got %v, reference %v", tau, seed, round, step, got, want)
				}
				est.Release()
				for x, d := range ix.Scratch() {
					if d != reach.Unreachable {
						t.Fatalf("tau %d seed %d: released scratch has stale mark %d at node %d", tau, seed, d, x)
					}
				}
			}
			if st := ix.Stats(); st.Builds != st.Tables || st.Hits == 0 || st.Bytes < 5*st.Tables {
				t.Fatalf("tau %d seed %d: implausible index stats %+v", tau, seed, st)
			}
		}
	}
}

// TestUnguidedMatchesDenseReference: the unguided estimator, which has
// no source filter, so its pools keep the target and every dead end,
// follows the reference bit for bit too.
func TestUnguidedMatchesDenseReference(t *testing.T) {
	const beta = 0.5
	for tau := 1; tau <= 3; tau++ {
		for seed := uint64(1); seed <= 5; seed++ {
			g, ids := randomGraph(t, seed, 60, 150)
			est := New(g, nil, tau, beta)
			if step, got, want, ok := replay(est, g, tau, beta, ids, seed*37, 400); !ok {
				t.Fatalf("tau %d seed %d step %d: got %v, reference %v", tau, seed, step, got, want)
			}
		}
	}
}

// TestEstimatorsShareIndexConcurrently: N estimators, one per
// goroutine, share one index; each must reproduce its own reference
// sequence while the others build and read tables (run under -race).
func TestEstimatorsShareIndexConcurrently(t *testing.T) {
	const tau, beta = 2, 0.5
	g, ids := randomGraph(t, 9, 80, 220)
	ix := reach.New(g, tau)
	var wg sync.WaitGroup
	for w := uint64(0); w < 8; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			est := New(g, ix, tau, beta)
			defer est.Release()
			if step, got, want, ok := replay(est, g, tau, beta, ids, 100+w%3, 300); !ok {
				t.Errorf("worker %d step %d: got %v, reference %v", w, step, got, want)
			}
		}(w)
	}
	wg.Wait()
	if st := ix.Stats(); st.Builds != st.Tables {
		t.Errorf("a target was built more than once: %+v", st)
	}
}
