// Package kg implements the knowledge-graph substrate NCExplorer runs on.
//
// Following §III of the paper, a KG is a bidirected multigraph
// G = (V_C ∪ V_I, E_C ∪ E_I, Ψ):
//
//   - V_I, the instance space: real-world entities (companies, people,
//     countries, …) connected by instance edges E_I (facts).
//   - V_C, the concept space: ontology categories connected by E_C,
//     which here is the `broader` hierarchy (child concept → parent
//     concept), as in DBpedia/SKOS.
//   - Ψ, the ontology relation: Ψ(c) maps a concept to its directly
//     asserted instance entities, Ψ⁻¹(v) maps an instance to its
//     directly asserted concepts.
//
// The graph is frozen into CSR (compressed sparse row) adjacency arrays
// by a Builder, after which all queries are allocation-free slice views.
// Node identity is a dense int32 so large graphs stay compact.
package kg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// NodeID identifies a node (concept or instance) in the graph.
type NodeID int32

// InvalidNode is returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Kind distinguishes the two node spaces.
type Kind uint8

const (
	// KindInstance marks a node in the instance (fact) space V_I.
	KindInstance Kind = iota
	// KindConcept marks a node in the ontology (concept) space V_C.
	KindConcept
)

func (k Kind) String() string {
	if k == KindConcept {
		return "concept"
	}
	return "instance"
}

// csr is a frozen adjacency list: the neighbours of node i occupy
// adj[off[i]:off[i+1]].
type csr struct {
	off []int64
	adj []NodeID
}

func (c *csr) neighbors(v NodeID) []NodeID {
	return c.adj[c.off[v]:c.off[v+1]]
}

func (c *csr) degree(v NodeID) int {
	return int(c.off[v+1] - c.off[v])
}

// Graph is an immutable knowledge graph. Construct one with a Builder.
// All methods are safe for concurrent use.
type Graph struct {
	names   []string
	kinds   []Kind
	aliases map[NodeID][]string

	inst     csr // instance-space edges (bidirected)
	broader  csr // concept → its broader (parent) concepts
	narrower csr // concept → its narrower (child) concepts
	extent   csr // Ψ: concept → direct instance members
	types    csr // Ψ⁻¹: instance → direct concepts

	byName map[string]NodeID

	numInstances int
	numConcepts  int
	instEdges    int64
	broaderEdges int64
	typeEdges    int64

	closureMu sync.Mutex
	closure   map[NodeID]int // memoised ExtentClosureSize

	specOnce sync.Once
	spec     []float64 // memoised Specificity, filled on first use
}

// NumNodes returns the total node count |V_C| + |V_I|.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumInstanceEdges returns the number of undirected instance edges.
func (g *Graph) NumInstanceEdges() int64 { return g.instEdges }

// Name returns the canonical name of a node.
func (g *Graph) Name(v NodeID) string { return g.names[v] }

// Aliases returns the alternative surface forms registered for a node
// (not including the canonical name). The returned slice must not be
// modified.
func (g *Graph) Aliases(v NodeID) []string { return g.aliases[v] }

// Kind reports whether v is a concept or an instance.
func (g *Graph) Kind(v NodeID) Kind { return g.kinds[v] }

// IsConcept reports whether v ∈ V_C.
func (g *Graph) IsConcept(v NodeID) bool { return g.kinds[v] == KindConcept }

// IsInstance reports whether v ∈ V_I.
func (g *Graph) IsInstance(v NodeID) bool { return g.kinds[v] == KindInstance }

// Lookup resolves a canonical name to its node.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// MustLookup resolves a canonical name and panics if absent. Intended
// for tests and examples operating on curated graphs.
func (g *Graph) MustLookup(name string) NodeID {
	id, ok := g.byName[name]
	if !ok {
		panic(fmt.Sprintf("kg: node %q not found", name))
	}
	return id
}

// InstanceNeighbors returns the instance-space neighbours of v. The
// returned slice is a view into the CSR arrays; do not modify it.
func (g *Graph) InstanceNeighbors(v NodeID) []NodeID { return g.inst.neighbors(v) }

// InstanceDegree returns the instance-space degree of v.
func (g *Graph) InstanceDegree(v NodeID) int { return g.inst.degree(v) }

// Broader returns the parent concepts of c along `broader` edges.
func (g *Graph) Broader(c NodeID) []NodeID { return g.broader.neighbors(c) }

// Narrower returns the child concepts of c (reverse of Broader).
func (g *Graph) Narrower(c NodeID) []NodeID { return g.narrower.neighbors(c) }

// Extent returns Ψ(c): the instances directly asserted to belong to c.
func (g *Graph) Extent(c NodeID) []NodeID { return g.extent.neighbors(c) }

// ExtentSize returns |Ψ(c)| for the direct extent.
func (g *Graph) ExtentSize(c NodeID) int { return g.extent.degree(c) }

// ConceptsOf returns Ψ⁻¹(v): the concepts directly asserted for v.
func (g *Graph) ConceptsOf(v NodeID) []NodeID { return g.types.neighbors(v) }

// ExtentClosure returns the instances of c or of any concept reachable
// from c via `narrower` edges, visiting at most maxConcepts concepts
// (0 = unlimited). This is the extended extension used for matching
// rolled-up broad concepts: the paper's rule that a broad concept
// without a direct document link is represented by an "edge concept
// among its children" implies membership is evaluated on descendants.
// The result is sorted and deduplicated.
func (g *Graph) ExtentClosure(c NodeID, maxConcepts int) []NodeID {
	seen := map[NodeID]struct{}{c: {}}
	queue := []NodeID{c}
	var out []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, g.Extent(cur)...)
		if maxConcepts > 0 && len(seen) >= maxConcepts {
			continue
		}
		for _, child := range g.Narrower(cur) {
			if _, ok := seen[child]; !ok {
				seen[child] = struct{}{}
				queue = append(queue, child)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ExtentClosureSize returns |ExtentClosure(c, 0)| with memoisation. It
// backs the specificity score for broad concepts whose direct extent is
// empty.
func (g *Graph) ExtentClosureSize(c NodeID) int {
	g.closureMu.Lock()
	if n, ok := g.closure[c]; ok {
		g.closureMu.Unlock()
		return n
	}
	g.closureMu.Unlock()
	n := len(g.ExtentClosure(c, 0))
	g.closureMu.Lock()
	g.closure[c] = n
	g.closureMu.Unlock()
	return n
}

// Specificity returns log(|V_I| / |Ψ(c)|), the paper's concept
// specificity score. When the direct extent is empty (a purely abstract
// concept) the closure extent is used, matching the paper's edge-concept
// substitution; a concept with no instances at all scores as if it had a
// single instance (maximal specificity) rather than dividing by zero.
//
// Values are pure graph data read in hot query loops (drill-down
// shortlisting, plan ceilings), so the whole table is computed once on
// first use and served lock-free afterwards.
func (g *Graph) Specificity(c NodeID) float64 {
	g.specOnce.Do(g.fillSpecificity)
	if c < 0 || int(c) >= len(g.spec) {
		return g.specificityOf(c)
	}
	return g.spec[c]
}

// SpecTable returns the memoised specificity table indexed by node ID.
// The slice is shared and must not be modified; it lets hot loops index
// directly instead of paying a call per lookup.
func (g *Graph) SpecTable() []float64 {
	g.specOnce.Do(g.fillSpecificity)
	return g.spec
}

func (g *Graph) fillSpecificity() {
	spec := make([]float64, g.NumNodes())
	for i := range spec {
		spec[i] = g.specificityOf(NodeID(i))
	}
	g.spec = spec
}

func (g *Graph) specificityOf(c NodeID) float64 {
	n := g.ExtentSize(c)
	if n == 0 {
		n = g.ExtentClosureSize(c)
	}
	if n == 0 {
		n = 1
	}
	return math.Log(float64(g.numInstances) / float64(n))
}

// AncestorsWithin returns all concepts reachable from c by following at
// most depth `broader` edges, excluding c itself, in BFS order.
func (g *Graph) AncestorsWithin(c NodeID, depth int) []NodeID {
	type item struct {
		n NodeID
		d int
	}
	seen := map[NodeID]struct{}{c: {}}
	queue := []item{{c, 0}}
	var out []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.d == depth {
			continue
		}
		for _, p := range g.Broader(cur.n) {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				out = append(out, p)
				queue = append(queue, item{p, cur.d + 1})
			}
		}
	}
	return out
}

// Instances iterates all instance node IDs in ascending order, calling
// fn for each. Iteration stops if fn returns false.
func (g *Graph) Instances(fn func(NodeID) bool) {
	for i := range g.kinds {
		if g.kinds[i] == KindInstance {
			if !fn(NodeID(i)) {
				return
			}
		}
	}
}

// Concepts iterates all concept node IDs in ascending order, calling fn
// for each. Iteration stops if fn returns false.
func (g *Graph) Concepts(fn func(NodeID) bool) {
	for i := range g.kinds {
		if g.kinds[i] == KindConcept {
			if !fn(NodeID(i)) {
				return
			}
		}
	}
}

// Stats summarises graph dimensions, mirroring the dataset statistics
// the paper reports for the DBpedia snapshot.
type Stats struct {
	Nodes          int
	Instances      int
	Concepts       int
	InstanceEdges  int64
	BroaderEdges   int64
	TypeAssertions int64
	AvgInstDegree  float64
	MaxInstDegree  int
}

// Stats computes summary statistics for the graph.
func (g *Graph) Stats() Stats {
	s := Stats{
		Nodes:          g.NumNodes(),
		Instances:      g.numInstances,
		Concepts:       g.numConcepts,
		InstanceEdges:  g.instEdges,
		BroaderEdges:   g.broaderEdges,
		TypeAssertions: g.typeEdges,
	}
	var total int64
	for i := range g.kinds {
		if g.kinds[i] != KindInstance {
			continue
		}
		d := g.inst.degree(NodeID(i))
		total += int64(d)
		if d > s.MaxInstDegree {
			s.MaxInstDegree = d
		}
	}
	if g.numInstances > 0 {
		s.AvgInstDegree = float64(total) / float64(g.numInstances)
	}
	return s
}

// Builder accumulates nodes and edges and freezes them into a Graph.
// It is not safe for concurrent use.
type Builder struct {
	names   []string
	kinds   []Kind
	aliases map[NodeID][]string
	byName  map[string]NodeID

	instEdges [][2]NodeID // undirected instance pairs
	broader   [][2]NodeID // child, parent
	typeEdges [][2]NodeID // instance, concept
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		byName:  make(map[string]NodeID),
		aliases: make(map[NodeID][]string),
	}
}

func (b *Builder) addNode(name string, kind Kind, aliases []string) NodeID {
	if id, ok := b.byName[name]; ok {
		// Idempotent adds keep generators simple; kinds must agree.
		if b.kinds[id] != kind {
			panic(fmt.Sprintf("kg: node %q re-added with different kind", name))
		}
		if len(aliases) > 0 {
			b.aliases[id] = append(b.aliases[id], aliases...)
		}
		return id
	}
	id := NodeID(len(b.names))
	b.names = append(b.names, name)
	b.kinds = append(b.kinds, kind)
	b.byName[name] = id
	if len(aliases) > 0 {
		b.aliases[id] = append([]string(nil), aliases...)
	}
	return id
}

// AddInstance registers an instance entity with optional alias surface
// forms; repeated adds with the same name return the same NodeID.
func (b *Builder) AddInstance(name string, aliases ...string) NodeID {
	return b.addNode(name, KindInstance, aliases)
}

// AddConcept registers a concept entity.
func (b *Builder) AddConcept(name string, aliases ...string) NodeID {
	return b.addNode(name, KindConcept, aliases)
}

// Lookup resolves a name registered so far.
func (b *Builder) Lookup(name string) (NodeID, bool) {
	id, ok := b.byName[name]
	return id, ok
}

// NumNodes returns the number of nodes registered so far.
func (b *Builder) NumNodes() int { return len(b.names) }

// AddInstanceEdge records an undirected fact edge between two instance
// entities. Self-loops are ignored.
func (b *Builder) AddInstanceEdge(u, v NodeID) {
	if u == v {
		return
	}
	b.instEdges = append(b.instEdges, [2]NodeID{u, v})
}

// AddBroader records that child's broader concept is parent.
func (b *Builder) AddBroader(child, parent NodeID) {
	if child == parent {
		return
	}
	b.broader = append(b.broader, [2]NodeID{child, parent})
}

// AddType records the ontology assertion v ∈ Ψ(c).
func (b *Builder) AddType(instance, concept NodeID) {
	b.typeEdges = append(b.typeEdges, [2]NodeID{instance, concept})
}

// Build validates and freezes the accumulated data into a Graph. The
// Builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.names)
	check := func(v NodeID, wantKind Kind, what string) error {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("kg: %s references unknown node %d", what, v)
		}
		if b.kinds[v] != wantKind {
			return fmt.Errorf("kg: %s references %q which is a %s, want %s",
				what, b.names[v], b.kinds[v], wantKind)
		}
		return nil
	}
	for _, e := range b.instEdges {
		if err := check(e[0], KindInstance, "instance edge"); err != nil {
			return nil, err
		}
		if err := check(e[1], KindInstance, "instance edge"); err != nil {
			return nil, err
		}
	}
	for _, e := range b.broader {
		if err := check(e[0], KindConcept, "broader edge"); err != nil {
			return nil, err
		}
		if err := check(e[1], KindConcept, "broader edge"); err != nil {
			return nil, err
		}
	}
	for _, e := range b.typeEdges {
		if err := check(e[0], KindInstance, "type assertion"); err != nil {
			return nil, err
		}
		if err := check(e[1], KindConcept, "type assertion"); err != nil {
			return nil, err
		}
	}

	g := &Graph{
		names:   b.names,
		kinds:   b.kinds,
		aliases: b.aliases,
		byName:  b.byName,
		closure: make(map[NodeID]int),
	}
	for _, k := range b.kinds {
		if k == KindInstance {
			g.numInstances++
		} else {
			g.numConcepts++
		}
	}

	// The instance space is bidirected: store each undirected edge in
	// both adjacency rows, then dedup.
	instKeys := make([]uint64, 0, len(b.instEdges)*2)
	for _, e := range b.instEdges {
		instKeys = append(instKeys, edgeKey(e[0], e[1]), edgeKey(e[1], e[0]))
	}
	var kept int64
	g.inst, kept = buildCSR(n, instKeys)
	g.instEdges = kept / 2

	up, down := make([]uint64, len(b.broader)), make([]uint64, len(b.broader))
	for i, e := range b.broader {
		up[i], down[i] = edgeKey(e[0], e[1]), edgeKey(e[1], e[0])
	}
	g.broader, g.broaderEdges = buildCSR(n, up)
	g.narrower, _ = buildCSR(n, down)

	up, down = make([]uint64, len(b.typeEdges)), make([]uint64, len(b.typeEdges))
	for i, e := range b.typeEdges {
		up[i], down[i] = edgeKey(e[0], e[1]), edgeKey(e[1], e[0])
	}
	g.types, g.typeEdges = buildCSR(n, up)
	g.extent, _ = buildCSR(n, down)

	if g.numInstances == 0 {
		return nil, errors.New("kg: graph has no instance entities")
	}
	return g, nil
}

// edgeKey packs a (src, dst) edge into one word that sorts by source,
// then destination: node IDs are non-negative, so their uint32 images
// keep their order.
func edgeKey(src, dst NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// buildCSR sorts packed edge keys (see edgeKey) into CSR form,
// deduplicating parallel edges, and returns the structure plus the
// number of retained edges. keys is sorted in place.
func buildCSR(n int, keys []uint64) (csr, int64) {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	off := make([]int64, n+1)
	adj := make([]NodeID, len(keys))
	for i, k := range keys {
		off[k>>32+1]++
		adj[i] = NodeID(uint32(k))
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	return csr{off: off, adj: adj}, int64(len(adj))
}
