// Package rw implements the single-random-walk estimator for the
// connectivity score (§III-C, Eq. 6 of the paper).
//
// The quantity to estimate, for a concept c with extent Ψ(c) and a
// context entity v, is
//
//	S(c, v) = Σ_{u ∈ Ψ(c)} Σ_{l=1..τ} β^l · |paths^⟨l⟩(u, v)|
//
// One sample: draw u uniformly from Ψ(c), then run a non-repeating
// random walk from u toward v. At each step the walk chooses uniformly
// among *eligible* neighbours — unvisited nodes that can still reach v
// within the remaining hop budget (exact reachability, read from v's
// reach.Index table painted into the estimator's dense scratch, when
// guided; merely "unvisited" when unguided). If the walk reaches v after
// l steps with N(u₀), …, N(u_{l−1}) eligible choices, the sample value is
//
//	r = |Ψ(c)| · β^l · Π_{i=0}^{l-1} N(u_i)
//
// and 0 if it dead-ends or exhausts τ. A specific simple path of
// length l is traversed with probability Π 1/N(u_i), so E[r] = S(c, v):
// the estimator is unbiased. (The paper's Eq. 6 writes the product from
// i = 1 with β^{l−1}, indexing the source as the first sampled node —
// the same expression; DESIGN.md §2 records the reconciliation, and
// TestUnbiasedness verifies the implementation against exact counts.)
//
// Guidance changes only which samples are zero, not the expectation:
// every step along a real path to v is eligible by definition, so path
// traversal probabilities — now with smaller N(u_i) — remain exact
// inverse weights. Fewer wasted walks ⇒ lower variance ⇒ the Fig. 7
// convergence gap between guided and unguided sampling.
package rw

import (
	"slices"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/xrand"
)

// Estimator runs guided or unguided walks. Not safe for concurrent use
// (scratch buffers); create one per goroutine.
//
// A guided estimator borrows a dense scratch from the index on its
// first guided walk and paints the current target's sparse table into
// it; the marks stay until a walk names a different target, so dist[y]
// is an O(1) read and the index is consulted once per target change.
type Estimator struct {
	g     *kg.Graph
	index *reach.Index // nil ⇒ unguided
	tau   int
	beta  float64

	dist    []int16      // dense scratch holding painted, else Unreachable
	painted *reach.Table // nil ⇒ no scratch borrowed
	target  kg.NodeID    // painted's target

	visited  []kg.NodeID // scratch: nodes on the current walk
	eligible []kg.NodeID // scratch: eligible neighbours at a step
	sources  []kg.NodeID // scratch: eligible source pool per target
	firsts   []kg.NodeID // scratch: the pool's first-hop lists, back to back
	spans    []span      // scratch: per pool slot, its list in firsts
}

// span locates one source's first-hop list in Estimator.firsts; lo < 0
// until the estimate first draws that pool slot.
type span struct{ lo, hi int32 }

// New returns an estimator with hop bound tau and damping beta. Pass a
// nil index for unguided walks.
func New(g *kg.Graph, index *reach.Index, tau int, beta float64) *Estimator {
	if tau < 1 {
		panic("rw: tau must be ≥ 1")
	}
	if beta <= 0 || beta > 1 {
		panic("rw: beta must be in (0, 1]")
	}
	return &Estimator{g: g, index: index, tau: tau, beta: beta}
}

// distTo returns the dense scratch painted with target v's table.
func (e *Estimator) distTo(v kg.NodeID) []int16 {
	switch {
	case e.painted != nil && e.target == v:
		return e.dist
	case e.painted == nil:
		e.dist = e.index.Scratch()
	default:
		e.painted.Unpaint(e.dist)
	}
	e.painted, e.target = e.index.Table(v), v
	e.painted.Paint(e.dist)
	return e.dist
}

// Release un-paints the scratch and hands it back to the index's pool;
// the estimator stays usable and re-borrows on its next guided walk.
func (e *Estimator) Release() {
	if e.painted != nil {
		e.painted.Unpaint(e.dist)
		e.index.Recycle(e.dist)
		e.dist, e.painted = nil, nil
	}
}

// firstHops appends u's eligible first hops toward v to out. The
// visited set of a first hop is {u} whatever the sample, so the list
// depends on (u, v, τ) alone and EstimateConcept reuses it for every
// sample that redraws u.
func (e *Estimator) firstHops(out []kg.NodeID, dist []int16, u, v kg.NodeID) []kg.NodeID {
	e.visited = append(e.visited[:0], u)
	return e.step(out, dist, u, v, e.tau-1)
}

// walk finishes a walk from u whose eligible first hops are first (u's
// list from firstHops, memoised per pool slot).
func (e *Estimator) walk(r *xrand.Rand, dist []int16, u, v kg.NodeID, first []kg.NodeID) float64 {
	e.visited = append(e.visited[:0], u)
	eligible := first
	prod := 1.0
	for l := 1; l <= e.tau; l++ {
		n := len(eligible)
		if n == 0 {
			return 0
		}
		prod *= float64(n)
		next := eligible[r.Intn(n)]
		if next == v {
			return pow(e.beta, l) * prod
		}
		e.visited = append(e.visited, next)
		eligible = e.step(e.eligible[:0], dist, next, v, e.tau-l-1)
		e.eligible = eligible
	}
	return 0
}

// step appends to out, in adjacency order, the neighbours of cur that a
// walk on e.visited may step to with remaining hops left after the
// step: v itself, or an unvisited node within remaining hops of v
// (guided), or any unvisited node (unguided).
//
// With no hops left only v is eligible. Adjacency rows are sorted and
// free of duplicates (kg.buildCSR), so the list is [v] iff v ∈ N(cur):
// a binary search, or dist[cur] == 1 when guided. The caller still
// draws r.Intn(1) from it, which keeps the random stream aligned.
func (e *Estimator) step(out []kg.NodeID, dist []int16, cur, v kg.NodeID, remaining int) []kg.NodeID {
	nbrs := e.g.InstanceNeighbors(cur)
	if remaining == 0 {
		if dist != nil {
			if dist[cur] == 1 {
				out = append(out, v)
			}
		} else if _, ok := slices.BinarySearch(nbrs, v); ok {
			out = append(out, v)
		}
		return out
	}
	for _, y := range nbrs {
		if y == v {
			out = append(out, y)
			continue
		}
		if dist != nil {
			if d := dist[y]; d == reach.Unreachable || int(d) > remaining {
				continue
			}
		}
		if e.onWalk(y) {
			continue
		}
		out = append(out, y)
	}
	return out
}

func (e *Estimator) onWalk(y kg.NodeID) bool {
	for _, x := range e.visited {
		if x == y {
			return true
		}
	}
	return false
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

// EstimateConcept estimates S(c, v) = Σ_{u∈ext} Σ_l β^l |paths^⟨l⟩(u,v)|
// with n samples, each drawing u uniformly from the source pool and
// scaling by the pool size (the |Ψ(c)| factor of Eq. 6).
//
// When a reachability index guides the estimator, the source pool is
// restricted to extent entities that can reach v within τ hops. This
// keeps the estimator exactly unbiased — sources beyond τ contribute
// precisely zero to S — while removing the dominant variance term for
// large extents, where most sources are nowhere near the context
// entity. It is the source-side counterpart of eligible-neighbour
// sampling, and the main reason the indexed estimator converges within
// tens of samples (Fig. 7).
func (e *Estimator) EstimateConcept(r *xrand.Rand, ext []kg.NodeID, v kg.NodeID, n int) float64 {
	if len(ext) == 0 || n <= 0 {
		return 0
	}
	pool, dist := ext, []int16(nil)
	if e.index != nil {
		dist = e.distTo(v)
		eligible := e.sources[:0]
		for _, u := range ext {
			if d := dist[u]; d != reach.Unreachable && int(d) <= e.tau && u != v {
				eligible = append(eligible, u)
			}
		}
		e.sources = eligible
		if len(eligible) == 0 {
			return 0
		}
		pool = eligible
	}
	e.firsts = e.firsts[:0]
	e.spans = slices.Grow(e.spans[:0], len(pool))[:len(pool)]
	for i := range e.spans {
		e.spans[i] = span{lo: -1}
	}
	scale := float64(len(pool))
	sum := 0.0
	for i := 0; i < n; i++ {
		slot := r.Intn(len(pool))
		u := pool[slot]
		if u == v {
			continue // a walk to itself is a zero sample, with no draws
		}
		sp := &e.spans[slot]
		if sp.lo < 0 {
			sp.lo = int32(len(e.firsts))
			e.firsts = e.firstHops(e.firsts, dist, u, v)
			sp.hi = int32(len(e.firsts))
		}
		sum += scale * e.walk(r, dist, u, v, e.firsts[sp.lo:sp.hi])
	}
	return sum / float64(n)
}
