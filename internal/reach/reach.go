// Package reach implements the k-hop reachability index (§III-C of the
// paper, citing Cheng et al.) that guides the random-walk connectivity
// estimator: when a walk targeting context entity v has r hops of
// budget left, only neighbours y with dist(y, v) ≤ r−1 are *eligible* —
// every other choice is a guaranteed dead end. Restricting sampling to
// eligible neighbours preserves unbiasedness (every simple path to v
// consists solely of eligible steps) while eliminating most zero-valued
// walks, which is what makes the estimator converge within ~20 samples
// in Fig. 7.
//
// Per target, the index stores the exact BFS distance of every node
// within k hops — sparsely: at τ = 2 that is 179 of 21,397 nodes on
// average. A consumer that needs O(1) lookups paints a table into a
// dense scratch it owns (Scratch, Table.Paint) and un-paints it when
// its target changes. Tables are built on demand under a fixed byte
// budget and are pure functions of the graph, so eviction never changes
// an answer. Precompute builds a known target set ahead of time (the
// analogue of the paper's offline 260 s / 100 GB construction over full
// DBpedia, reported by the E9 benchmark at this repo's scale).
package reach

import (
	"math"
	"slices"
	"sync"

	"ncexplorer/internal/kg"
)

// Unreachable marks nodes farther than k hops from the target.
const Unreachable = int16(-1)

// defaultBudget bounds the resident table bytes: never reached at the
// default scale (τ = 2); at τ = 3 a table covers ~11 % of the graph.
const defaultBudget = 64 << 20

// Table is the sparse capped-distance table of one target: Nodes lists,
// ascending, every node within k hops (the target itself at distance 0)
// and Dist[i] is the BFS distance of Nodes[i]. Immutable; valid after
// eviction.
type Table struct {
	Nodes []kg.NodeID
	Dist  []int8
}

// bytes is the resident size: a NodeID and an int8 per entry.
func (t *Table) bytes() int64 { return int64(len(t.Nodes)) * 5 }

// Paint writes the table into dense, which must be all-Unreachable.
func (t *Table) Paint(dense []int16) {
	for i, x := range t.Nodes {
		dense[x] = int16(t.Dist[i])
	}
}

// Unpaint restores a dense array painted with t to all-Unreachable.
func (t *Table) Unpaint(dense []int16) {
	for _, x := range t.Nodes {
		dense[x] = Unreachable
	}
}

// Stats is a point-in-time view of the cache: resident tables and their
// bytes (entries × 5), BFS builds run, and lookups served from cache.
type Stats struct{ Tables, Bytes, Builds, Hits int64 }

// Index is a byte-bounded cache of sparse capped-distance tables. Safe
// for concurrent use.
type Index struct {
	g      *kg.Graph
	k      int
	budget int64

	mu    sync.Mutex // guards cache and st
	cache map[kg.NodeID]*Table
	st    Stats

	scratch sync.Pool // dense []int16, all-Unreachable at rest
}

// New returns an index of distances capped at k hops.
func New(g *kg.Graph, k int) *Index {
	if k < 1 || k > math.MaxInt8 {
		panic("reach: k must be in [1, 127]")
	}
	return &Index{g: g, k: k, budget: defaultBudget, cache: make(map[kg.NodeID]*Table)}
}

// Scratch returns a dense NumNodes-sized array, every entry Unreachable,
// that the caller owns until it Recycles it (all-Unreachable again).
func (ix *Index) Scratch() []int16 {
	if s, ok := ix.scratch.Get().(*[]int16); ok {
		return *s
	}
	s := make([]int16, ix.g.NumNodes())
	for i := range s {
		s[i] = Unreachable
	}
	return s
}

// Recycle returns an all-Unreachable scratch array to the pool.
func (ix *Index) Recycle(s []int16) { ix.scratch.Put(&s) }

// Table returns the capped-distance table for target v, building it on
// first use. The BFS runs under the index lock (a few µs at τ = 2), so
// concurrent callers missing on one target share one build. Over
// budget, other tables are dropped in map order: they are pure
// functions of the graph, so the choice only decides who rebuilds.
func (ix *Index) Table(v kg.NodeID) *Table {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if t, ok := ix.cache[v]; ok {
		ix.st.Hits++
		return t
	}
	t := ix.build(v)
	ix.cache[v] = t
	ix.st.Builds++
	ix.st.Bytes += t.bytes()
	for u, x := range ix.cache {
		if ix.st.Bytes <= ix.budget {
			break
		}
		if u != v {
			delete(ix.cache, u)
			ix.st.Bytes -= x.bytes()
		}
	}
	return t
}

// build runs the capped BFS from v over a pooled dense scratch.
func (ix *Index) build(v kg.NodeID) *Table {
	d := ix.Scratch()
	d[v] = 0
	queue := []kg.NodeID{v}
	lo := 0
	for depth := int16(1); int(depth) <= ix.k; depth++ {
		hi := len(queue)
		for _, x := range queue[lo:hi] {
			for _, y := range ix.g.InstanceNeighbors(x) {
				if d[y] == Unreachable {
					d[y] = depth
					queue = append(queue, y)
				}
			}
		}
		lo = hi
	}
	slices.Sort(queue)
	t := &Table{Nodes: slices.Clone(queue), Dist: make([]int8, len(queue))}
	for i, x := range t.Nodes {
		t.Dist[i] = int8(d[x])
		d[x] = Unreachable
	}
	ix.Recycle(d)
	return t
}

// Precompute materialises the tables for all targets (a context-entity
// set known up front) and returns the bytes resident afterwards.
func (ix *Index) Precompute(targets []kg.NodeID) int64 {
	for _, v := range targets {
		ix.Table(v)
	}
	return ix.Stats().Bytes
}

// Stats returns the cache counters.
func (ix *Index) Stats() Stats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.st.Tables = int64(len(ix.cache))
	return ix.st
}
