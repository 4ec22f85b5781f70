package kg

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ncexplorer/internal/xrand"
)

// buildSample constructs the small KG of Fig. 2 flavour:
//
//	concepts:  Topic ← {Finance ← {Crypto}, Politics}
//	instances: ftx—binance—coinbase (chain), senate (isolated)
//	Ψ: ftx,binance ∈ Crypto; coinbase ∈ Finance; senate ∈ Politics
func buildSample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	topic := b.AddConcept("Topic")
	finance := b.AddConcept("Finance")
	crypto := b.AddConcept("Crypto")
	politics := b.AddConcept("Politics")
	b.AddBroader(finance, topic)
	b.AddBroader(crypto, finance)
	b.AddBroader(politics, topic)

	ftx := b.AddInstance("FTX", "ftx exchange")
	binance := b.AddInstance("Binance")
	coinbase := b.AddInstance("Coinbase")
	senate := b.AddInstance("Senate")
	b.AddInstanceEdge(ftx, binance)
	b.AddInstanceEdge(binance, coinbase)

	b.AddType(ftx, crypto)
	b.AddType(binance, crypto)
	b.AddType(coinbase, finance)
	b.AddType(senate, politics)

	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func names(g *Graph, ids []NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Name(id)
	}
	sort.Strings(out)
	return out
}

func TestCounts(t *testing.T) {
	g := buildSample(t)
	s := g.Stats()
	if s.Concepts != 4 || s.Instances != 4 || g.NumNodes() != 8 {
		t.Fatalf("counts: %d concepts, %d instances", s.Concepts, s.Instances)
	}
	if g.NumInstanceEdges() != 2 {
		t.Fatalf("instance edges = %d, want 2", g.NumInstanceEdges())
	}
	if s.BroaderEdges != 3 {
		t.Fatalf("broader edges = %d, want 3", s.BroaderEdges)
	}
	if s.TypeAssertions != 4 {
		t.Fatalf("type assertions = %d, want 4", s.TypeAssertions)
	}
}

func TestBidirectedInstanceEdges(t *testing.T) {
	g := buildSample(t)
	ftx := g.MustLookup("FTX")
	binance := g.MustLookup("Binance")
	if got := names(g, g.InstanceNeighbors(ftx)); len(got) != 1 || got[0] != "Binance" {
		t.Fatalf("FTX neighbors = %v", got)
	}
	got := names(g, g.InstanceNeighbors(binance))
	want := []string{"Coinbase", "FTX"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Binance neighbors = %v, want %v", got, want)
	}
}

func TestDedupParallelEdges(t *testing.T) {
	b := NewBuilder()
	a := b.AddInstance("a")
	c := b.AddInstance("c")
	b.AddInstanceEdge(a, c)
	b.AddInstanceEdge(a, c)
	b.AddInstanceEdge(c, a)
	b.AddInstanceEdge(a, a) // self loop dropped
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumInstanceEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", g.NumInstanceEdges())
	}
	if g.InstanceDegree(a) != 1 || g.InstanceDegree(c) != 1 {
		t.Fatalf("degrees = %d,%d", g.InstanceDegree(a), g.InstanceDegree(c))
	}
}

func TestOntologyRelation(t *testing.T) {
	g := buildSample(t)
	crypto := g.MustLookup("Crypto")
	if got := names(g, g.Extent(crypto)); got[0] != "Binance" || got[1] != "FTX" {
		t.Fatalf("Ψ(Crypto) = %v", got)
	}
	ftx := g.MustLookup("FTX")
	if got := names(g, g.ConceptsOf(ftx)); len(got) != 1 || got[0] != "Crypto" {
		t.Fatalf("Ψ⁻¹(FTX) = %v", got)
	}
}

func TestBroaderNarrower(t *testing.T) {
	g := buildSample(t)
	crypto := g.MustLookup("Crypto")
	finance := g.MustLookup("Finance")
	topic := g.MustLookup("Topic")
	if got := g.Broader(crypto); len(got) != 1 || got[0] != finance {
		t.Fatalf("Broader(Crypto) = %v", names(g, got))
	}
	if got := names(g, g.Narrower(topic)); len(got) != 2 {
		t.Fatalf("Narrower(Topic) = %v", got)
	}
}

func TestExtentClosure(t *testing.T) {
	g := buildSample(t)
	topic := g.MustLookup("Topic")
	got := names(g, g.ExtentClosure(topic, 0))
	want := []string{"Binance", "Coinbase", "FTX", "Senate"}
	if len(got) != len(want) {
		t.Fatalf("closure(Topic) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("closure(Topic) = %v, want %v", got, want)
		}
	}
	finance := g.MustLookup("Finance")
	if got := names(g, g.ExtentClosure(finance, 0)); len(got) != 3 {
		t.Fatalf("closure(Finance) = %v", got)
	}
	if n := g.ExtentClosureSize(finance); n != 3 {
		t.Fatalf("closure size = %d", n)
	}
	// memoised second call
	if n := g.ExtentClosureSize(finance); n != 3 {
		t.Fatalf("memoised closure size = %d", n)
	}
}

func TestExtentClosureNoDoubleCount(t *testing.T) {
	// Diamond: instance belongs to two children of the same parent.
	b := NewBuilder()
	root := b.AddConcept("root")
	l := b.AddConcept("l")
	r := b.AddConcept("r")
	b.AddBroader(l, root)
	b.AddBroader(r, root)
	v := b.AddInstance("v")
	b.AddType(v, l)
	b.AddType(v, r)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ExtentClosure(root, 0); len(got) != 1 {
		t.Fatalf("diamond closure = %d instances, want 1", len(got))
	}
}

func TestSpecificity(t *testing.T) {
	g := buildSample(t)
	crypto := g.MustLookup("Crypto")
	topic := g.MustLookup("Topic")
	// |V_I| = 4, |Ψ(Crypto)| = 2 → log 2
	if got := g.Specificity(crypto); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("Specificity(Crypto) = %v", got)
	}
	// Topic has empty direct extent; closure = 4 → log 1 = 0.
	if got := g.Specificity(topic); got != 0 {
		t.Fatalf("Specificity(Topic) = %v, want 0", got)
	}
	// Specific concepts must outrank broad ones.
	if g.Specificity(crypto) <= g.Specificity(topic) {
		t.Fatal("specific concept should have higher specificity than broad one")
	}
}

func TestAncestorsWithin(t *testing.T) {
	g := buildSample(t)
	crypto := g.MustLookup("Crypto")
	if got := names(g, g.AncestorsWithin(crypto, 1)); len(got) != 1 || got[0] != "Finance" {
		t.Fatalf("1-hop ancestors = %v", got)
	}
	got := names(g, g.AncestorsWithin(crypto, 2))
	if len(got) != 2 || got[0] != "Finance" || got[1] != "Topic" {
		t.Fatalf("2-hop ancestors = %v", got)
	}
}

func TestBuildValidation(t *testing.T) {
	b := NewBuilder()
	c := b.AddConcept("c")
	v := b.AddInstance("v")
	b.AddInstanceEdge(v, c) // wrong kind
	if _, err := b.Build(); err == nil {
		t.Fatal("expected kind-mismatch error")
	}

	b2 := NewBuilder()
	b2.AddConcept("only-concepts")
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected no-instances error")
	}
}

func TestIdempotentAdd(t *testing.T) {
	b := NewBuilder()
	a1 := b.AddInstance("a")
	a2 := b.AddInstance("a", "alias-a")
	if a1 != a2 {
		t.Fatal("duplicate add should return same id")
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if al := g.Aliases(a1); len(al) != 1 || al[0] != "alias-a" {
		t.Fatalf("aliases = %v", al)
	}
}

func TestLookup(t *testing.T) {
	g := buildSample(t)
	if _, ok := g.Lookup("FTX"); !ok {
		t.Fatal("lookup FTX failed")
	}
	if _, ok := g.Lookup("nope"); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown should panic")
		}
	}()
	g.MustLookup("nope")
}

func TestStats(t *testing.T) {
	g := buildSample(t)
	s := g.Stats()
	if s.Instances != 4 || s.Concepts != 4 || s.InstanceEdges != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxInstDegree != 2 {
		t.Fatalf("max degree = %d, want 2 (Binance)", s.MaxInstDegree)
	}
	if math.Abs(s.AvgInstDegree-1.0) > 1e-9 { // degrees 1,2,1,0
		t.Fatalf("avg degree = %v, want 1.0", s.AvgInstDegree)
	}
}

func TestIterators(t *testing.T) {
	g := buildSample(t)
	var inst, conc int
	g.Instances(func(NodeID) bool { inst++; return true })
	g.Concepts(func(NodeID) bool { conc++; return true })
	if inst != 4 || conc != 4 {
		t.Fatalf("iterated %d instances, %d concepts", inst, conc)
	}
	// early stop
	n := 0
	g.Instances(func(NodeID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	g := buildSample(t)
	var buf bytes.Buffer
	if err := g.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Stats() != g.Stats() {
		t.Fatalf("round trip mismatch: %+v vs %+v", g2.Stats(), g.Stats())
	}
	ftx := g2.MustLookup("FTX")
	if got := names(g2, g2.ConceptsOf(ftx)); len(got) != 1 || got[0] != "Crypto" {
		t.Fatalf("round-tripped Ψ⁻¹(FTX) = %v", got)
	}
	if al := g2.Aliases(ftx); len(al) != 1 || al[0] != "ftx exchange" {
		t.Fatalf("round-tripped aliases = %v", al)
	}
}

func TestLoadRejectsUnknownRefs(t *testing.T) {
	bad := `{"instances":[{"name":"a"}],"concepts":[],"instance_edges":[["a","ghost"]],"broader_edges":[],"type_assertions":[]}`
	if _, err := Load(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("expected error for unknown edge endpoint")
	}
}

// Property: for a random graph, CSR neighbour lists are sorted, deduped,
// and symmetric in the instance space.
func TestCSRInvariants(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		b := NewBuilder()
		const n = 40
		ids := make([]NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddInstance(string(rune('A'+i%26)) + string(rune('a'+i/26)))
		}
		for e := 0; e < 120; e++ {
			b.AddInstanceEdge(ids[r.Intn(n)], ids[r.Intn(n)])
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for _, u := range ids {
			nbrs := g.InstanceNeighbors(u)
			for i := 1; i < len(nbrs); i++ {
				if nbrs[i-1] >= nbrs[i] {
					return false // not strictly sorted ⇒ dup or disorder
				}
			}
			for _, v := range nbrs {
				if !containsNode(g.InstanceNeighbors(v), u) {
					return false // asymmetric
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func containsNode(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// referenceCSR is the comparison-sort builder buildCSR replaced, kept
// verbatim as the oracle for the packed-key version.
func referenceCSR(n int, pairs [][2]NodeID) (csr, int64) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	off := make([]int64, n+1)
	adj := make([]NodeID, 0, len(pairs))
	var prev [2]NodeID
	first := true
	for _, p := range pairs {
		if !first && p == prev {
			continue
		}
		first = false
		prev = p
		off[p[0]+1]++
		adj = append(adj, p[1])
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	return csr{off: off, adj: adj}, int64(len(adj))
}

// TestBuildCSRMatchesReference checks buildCSR row for row against the
// reference on random edge lists with duplicates, self-loops, empty
// rows and edges at the largest node ID.
func TestBuildCSRMatchesReference(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		var pairs [][2]NodeID
		for e := r.Intn(4 * n); e > 0; e-- {
			// Sources skip odd IDs half the time so some rows stay empty.
			src := NodeID(r.Intn(n))
			if trial%2 == 0 {
				src &^= 1
			}
			p := [2]NodeID{src, NodeID(r.Intn(n))}
			switch r.Intn(6) {
			case 0:
				p[1] = p[0] // self-loop
			case 1:
				p = [2]NodeID{NodeID(n - 1), NodeID(n - 1 - r.Intn(n))} // largest ID
			}
			pairs = append(pairs, p)
			if r.Intn(3) == 0 {
				pairs = append(pairs, p) // parallel edge
			}
		}
		keys := make([]uint64, len(pairs))
		for i, p := range pairs {
			keys[i] = edgeKey(p[0], p[1])
		}
		got, gotN := buildCSR(n, keys)
		want, wantN := referenceCSR(n, pairs)
		if gotN != wantN || !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) {
			t.Fatalf("trial %d (n=%d, %d pairs): buildCSR = %v/%v (%d), reference %v/%v (%d)",
				trial, n, len(pairs), got.off, got.adj, gotN, want.off, want.adj, wantN)
		}
	}
}
