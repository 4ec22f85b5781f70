package kggen

import (
	"math"
	"sort"
	"testing"

	"ncexplorer/internal/kg"
)

func TestGenerateTiny(t *testing.T) {
	g, meta := MustGenerate(Tiny())
	s := g.Stats()
	if s.Concepts < len(curatedConcepts) {
		t.Fatalf("concepts = %d, want ≥ %d curated", s.Concepts, len(curatedConcepts))
	}
	if s.Instances < len(curatedInstances)+300 {
		t.Fatalf("instances = %d, too few", s.Instances)
	}
	if len(meta.Topics) != 6 {
		t.Fatalf("topics = %d, want 6", len(meta.Topics))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Tiny()
	g1, _ := MustGenerate(cfg)
	g2, _ := MustGenerate(cfg)
	s1, s2 := g1.Stats(), g2.Stats()
	if s1 != s2 {
		t.Fatalf("same seed produced different graphs: %+v vs %+v", s1, s2)
	}
	// Spot-check adjacency equality on a curated hub.
	ftx1 := g1.MustLookup("FTX")
	ftx2 := g2.MustLookup("FTX")
	n1, n2 := g1.InstanceNeighbors(ftx1), g2.InstanceNeighbors(ftx2)
	if len(n1) != len(n2) {
		t.Fatalf("FTX degree differs: %d vs %d", len(n1), len(n2))
	}
	cfg2 := cfg
	cfg2.Seed = 99
	g3, _ := MustGenerate(cfg2)
	if g3.Stats() == s1 {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
}

func TestCuratedBackbonePresent(t *testing.T) {
	g, _ := MustGenerate(Tiny())
	for _, name := range []string{"FTX", "CryptoX", "Elon Musk", "Bitcoin exchange",
		"Financial crime", "Regulator", "Switzerland", "Money laundering"} {
		if _, ok := g.Lookup(name); !ok {
			t.Errorf("curated node %q missing", name)
		}
	}
	// The Fig. 1 roll-up path: FTX ∈ Ψ(Bitcoin exchange), and
	// Bitcoin exchange ⊑ Cryptocurrency ⊑ Finance.
	ftx := g.MustLookup("FTX")
	be := g.MustLookup("Bitcoin exchange")
	found := false
	for _, c := range g.ConceptsOf(ftx) {
		if c == be {
			found = true
		}
	}
	if !found {
		t.Fatal("FTX should belong to Bitcoin exchange")
	}
	anc := g.AncestorsWithin(be, 3)
	names := map[string]bool{}
	for _, a := range anc {
		names[g.Name(a)] = true
	}
	if !names["Cryptocurrency"] || !names["Finance"] {
		t.Fatalf("Bitcoin exchange ancestors = %v", names)
	}
}

func TestTopicsResolvable(t *testing.T) {
	g, meta := MustGenerate(Tiny())
	for _, topic := range meta.Topics {
		if !g.IsConcept(topic.Concept) {
			t.Errorf("topic %q concept is not a concept node", topic.Name)
		}
		if len(topic.Group) == 0 {
			t.Errorf("topic %q has empty group", topic.Name)
		}
		for _, v := range topic.Group {
			if !g.IsInstance(v) {
				t.Errorf("topic %q group member %q is not an instance", topic.Name, g.Name(v))
			}
		}
		if topic.Domain != "business" && topic.Domain != "politics" {
			t.Errorf("topic %q has domain %q", topic.Name, topic.Domain)
		}
		// Topic concepts must have a non-trivial extent closure so that
		// roll-up queries can match documents.
		if n := g.ExtentClosureSize(topic.Concept); n < 2 {
			t.Errorf("topic %q extent closure = %d, too small", topic.Name, n)
		}
	}
}

func TestDegreeDistributionHeavyTailed(t *testing.T) {
	g, _ := MustGenerate(Tiny())
	var degrees []int
	g.Instances(func(v kg.NodeID) bool {
		degrees = append(degrees, g.InstanceDegree(v))
		return true
	})
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	if degrees[0] < 4*int(math.Max(1, float64(degrees[len(degrees)/2]))) {
		t.Errorf("max degree %d vs median %d: expected heavy tail",
			degrees[0], degrees[len(degrees)/2])
	}
	// Average degree should land near the configured target.
	sum := 0
	for _, d := range degrees {
		sum += d
	}
	avg := float64(sum) / float64(len(degrees))
	if avg < 2 || avg > 14 {
		t.Errorf("avg degree = %v, want near %v", avg, Tiny().AvgDegree)
	}
}

func TestExtentSpread(t *testing.T) {
	// The specificity score needs |Ψ(c)| to span orders of magnitude.
	g, _ := MustGenerate(Tiny())
	minExt, maxExt := math.MaxInt32, 0
	g.Concepts(func(c kg.NodeID) bool {
		n := g.ExtentSize(c)
		if n > 0 && n < minExt {
			minExt = n
		}
		if n > maxExt {
			maxExt = n
		}
		return true
	})
	if maxExt < 10*minExt {
		t.Errorf("extent sizes span [%d,%d]; want ≥10× spread", minExt, maxExt)
	}
}

func TestDomainsCoverAllConcepts(t *testing.T) {
	g, meta := MustGenerate(Tiny())
	missing := 0
	g.Concepts(func(c kg.NodeID) bool {
		if _, ok := meta.Domains[c]; !ok {
			missing++
		}
		return true
	})
	if missing > 0 {
		t.Errorf("%d concepts lack a domain label", missing)
	}
}

func TestGroupsPopulated(t *testing.T) {
	_, meta := MustGenerate(Tiny())
	for _, grp := range []string{"countries", "african_countries",
		"us_tech_companies", "us_biotech_companies", "industrial_companies",
		"swiss_banks", "crypto_exchanges", "media_owners"} {
		if len(meta.Groups[grp]) < 3 {
			t.Errorf("group %q has %d members, want ≥3", grp, len(meta.Groups[grp]))
		}
	}
}

func TestConnectedBackbone(t *testing.T) {
	// Curated story entities must be reachable from each other within a
	// few hops so connectivity scoring has signal: FTX ↔ regulators.
	g, _ := MustGenerate(Tiny())
	ftx := g.MustLookup("FTX")
	sec := g.MustLookup("Securities Commission")
	dist := bfsDistance(g, ftx, sec, 4)
	if dist < 0 || dist > 2 {
		t.Errorf("FTX→SEC distance = %d, want ≤2", dist)
	}
}

func bfsDistance(g *kg.Graph, from, to kg.NodeID, limit int) int {
	if from == to {
		return 0
	}
	seen := map[kg.NodeID]struct{}{from: {}}
	frontier := []kg.NodeID{from}
	for d := 1; d <= limit; d++ {
		var next []kg.NodeID
		for _, u := range frontier {
			for _, v := range g.InstanceNeighbors(u) {
				if v == to {
					return d
				}
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return -1
}

func TestUniqueNames(t *testing.T) {
	g, _ := MustGenerate(Tiny())
	seen := make(map[string]struct{}, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		name := g.Name(kg.NodeID(i))
		if _, dup := seen[name]; dup {
			t.Fatalf("duplicate node name %q", name)
		}
		seen[name] = struct{}{}
	}
}

func BenchmarkGenerateTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerate(Tiny())
	}
}
