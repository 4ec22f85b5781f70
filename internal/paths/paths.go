// Package paths implements exact hop-constrained s-t simple path
// counting on the KG instance space. The connectivity score (Eq. 4 of
// the paper) is defined over |paths^⟨l⟩(u,v)| — the number of simple
// paths of length l ≤ τ between an extent entity u and a context entity
// v. Exact enumeration is the expensive operation the paper's sampling
// estimator replaces; this package provides the ground truth for the
// estimator's correctness tests and for the Fig. 6/7 experiments.
//
// The core is a depth-first enumeration with two prunings:
//
//   - visited-set pruning (simple paths only), and
//   - distance pruning: a reverse BFS from the target computes
//     dist(x, v); a branch is abandoned when dist exceeds the remaining
//     hop budget. This is the same reachability information the paper's
//     index provides to the random-walk sampler.
package paths

import (
	"ncexplorer/internal/kg"
)

// Counter performs exact path counting with reusable scratch space.
// Not safe for concurrent use; create one per goroutine.
type Counter struct {
	g       *kg.Graph
	visited []bool
	dist    []int16
	distFor kg.NodeID
	distHzn int
	counts  []int64
}

// NewCounter returns a counter over the graph's instance space.
func NewCounter(g *kg.Graph) *Counter {
	return &Counter{
		g:       g,
		visited: make([]bool, g.NumNodes()),
		dist:    make([]int16, g.NumNodes()),
		distFor: kg.InvalidNode,
	}
}

// unreachable marks nodes farther than the horizon in the dist table.
const unreachable = int16(-1)

// distancesTo fills c.dist with BFS distances to target v, capped at
// horizon (−1 beyond). Cached while the target is unchanged and the
// horizon does not grow.
func (c *Counter) distancesTo(v kg.NodeID, horizon int) {
	if c.distFor == v && horizon <= c.distHzn {
		return
	}
	for i := range c.dist {
		c.dist[i] = unreachable
	}
	c.dist[v] = 0
	frontier := []kg.NodeID{v}
	for d := 1; d <= horizon; d++ {
		var next []kg.NodeID
		for _, x := range frontier {
			for _, y := range c.g.InstanceNeighbors(x) {
				if c.dist[y] == unreachable {
					c.dist[y] = int16(d)
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	c.distFor = v
	c.distHzn = horizon
}

// Count returns counts[l] = number of simple paths of exactly l edges
// from u to v in the instance space, for l = 1..tau (counts[0] is
// always 0; the returned slice has length tau+1). u and v must be
// instance nodes; u == v yields all zeros (a trivial path has length 0,
// which the connectivity score ignores).
func (c *Counter) Count(u, v kg.NodeID, tau int) []int64 {
	if tau < 1 {
		return make([]int64, 1)
	}
	c.counts = make([]int64, tau+1)
	if u == v {
		return c.counts
	}
	c.distancesTo(v, tau)
	if c.dist[u] == unreachable || int(c.dist[u]) > tau {
		return c.counts
	}
	c.visited[u] = true
	c.dfs(u, v, 0, tau)
	c.visited[u] = false
	return c.counts
}

func (c *Counter) dfs(cur, target kg.NodeID, depth, tau int) {
	for _, y := range c.g.InstanceNeighbors(cur) {
		if y == target {
			c.counts[depth+1]++
			continue
		}
		if c.visited[y] || depth+1 >= tau {
			continue
		}
		// Distance pruning: y must still be able to reach the target
		// within the remaining budget.
		if c.dist[y] == unreachable || int(c.dist[y]) > tau-depth-1 {
			continue
		}
		c.visited[y] = true
		c.dfs(y, target, depth+1, tau)
		c.visited[y] = false
	}
}

// WeightedCount returns Σ_{l=1..tau} β^l · |paths^⟨l⟩(u, v)| — the inner
// term of the connectivity score for one (u, v) pair.
func (c *Counter) WeightedCount(u, v kg.NodeID, tau int, beta float64) float64 {
	counts := c.Count(u, v, tau)
	sum := 0.0
	w := 1.0
	for l := 1; l <= tau; l++ {
		w *= beta
		sum += w * float64(counts[l])
	}
	return sum
}
