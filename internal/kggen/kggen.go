// Package kggen generates the synthetic knowledge graph that stands in
// for the DBpedia 2021-06 snapshot used by the paper (5.2M nodes, 27.9M
// edges — far beyond what an offline, dependency-free reproduction can
// ship). The generator preserves the structural properties NCExplorer's
// algorithms depend on:
//
//   - a multi-level `broader` concept taxonomy (roll-up needs depth),
//   - concept extents |Ψ(c)| spanning orders of magnitude (the
//     specificity score log(|V_I|/|Ψ(c)|) needs the spread),
//   - a power-law-degree instance space with community structure, so
//     hop-constrained paths between topically related entities are
//     plentiful while unrelated entities stay weakly connected (the
//     connectivity score, Eq. 4, needs this contrast), and
//   - a curated backbone holding the paper's narrative entities (FTX,
//     CryptoX, Elon Musk, the six Table-I topics with entity groups).
//
// Generation is fully deterministic given Config.Seed.
package kggen

import (
	"fmt"
	"strings"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/xrand"
)

// Config controls the size and shape of the generated graph.
type Config struct {
	// Seed drives all randomness. Equal seeds ⇒ identical graphs.
	Seed uint64
	// ExtraConcepts is the number of synthetic concepts grown on top of
	// the curated taxonomy.
	ExtraConcepts int
	// ExtraInstances is the number of synthetic instance entities.
	ExtraInstances int
	// AvgDegree is the target mean instance-space degree.
	AvgDegree float64
	// MaxTypesPerInstance bounds |Ψ⁻¹(v)| for synthetic instances.
	MaxTypesPerInstance int
	// CommunityBias is the probability an edge stays inside one of the
	// endpoint's concept communities rather than attaching globally.
	CommunityBias float64
	// MinCuratedExtent backfills every curated concept to at least this
	// many direct instances (DBpedia categories are never empty; the
	// evaluation topics need matchable extents at every scale). 0 ⇒ 3.
	MinCuratedExtent int
}

// Tiny returns a configuration suited to unit tests: the curated
// backbone plus a thin synthetic fringe.
func Tiny() Config {
	return Config{Seed: 1, ExtraConcepts: 60, ExtraInstances: 400,
		AvgDegree: 6, MaxTypesPerInstance: 3, CommunityBias: 0.6}
}

// Default returns the configuration used by the experiment harness:
// laptop-scale but structurally DBpedia-like.
func Default() Config {
	return Config{Seed: 42, ExtraConcepts: 1200, ExtraInstances: 20000,
		AvgDegree: 8, MaxTypesPerInstance: 3, CommunityBias: 0.6}
}

// Topic is a resolved evaluation topic: concept and entity group as
// node IDs in the generated graph. GroupConcept is the concept that
// generalises the group's members, so the Table-I query for this topic
// is the concept pattern {Concept, GroupConcept}.
type Topic struct {
	Name         string
	Concept      kg.NodeID
	GroupName    string
	GroupConcept kg.NodeID
	Group        []kg.NodeID
	Domain       string
}

// Meta carries generation-time knowledge the experiments need: named
// entity groups, the news domain of every concept, and the resolved
// Table-I topics.
type Meta struct {
	Groups map[string][]kg.NodeID
	// GroupConcepts maps each group key to the concept generalising it.
	GroupConcepts map[string]kg.NodeID
	Domains       map[kg.NodeID]string
	Topics        []Topic
}

// Generate builds the graph and its metadata.
func Generate(cfg Config) (*kg.Graph, *Meta, error) {
	if cfg.MaxTypesPerInstance <= 0 {
		cfg.MaxTypesPerInstance = 3
	}
	if cfg.AvgDegree <= 0 {
		cfg.AvgDegree = 6
	}
	if cfg.CommunityBias <= 0 || cfg.CommunityBias >= 1 {
		cfg.CommunityBias = 0.6
	}
	r := xrand.New(cfg.Seed)
	b := kg.NewBuilder()
	names := newNameGen(r.Fork(1))

	// ── Curated backbone ───────────────────────────────────────────
	conceptDomain := make(map[kg.NodeID]string)
	conceptIDs := make(map[string]kg.NodeID, len(curatedConcepts))
	var conceptOrder []kg.NodeID // creation order for Zipf popularity
	for _, cs := range curatedConcepts {
		id := b.AddConcept(cs.name)
		conceptIDs[cs.name] = id
		conceptDomain[id] = cs.domain
		if cs.parent != "" {
			pid, ok := conceptIDs[cs.parent]
			if !ok {
				return nil, nil, fmt.Errorf("kggen: concept %q has unknown parent %q", cs.name, cs.parent)
			}
			b.AddBroader(id, pid)
		}
		if cs.name != RootConcept {
			conceptOrder = append(conceptOrder, id)
		}
	}

	groups := make(map[string][]kg.NodeID)
	instIDs := make(map[string]kg.NodeID, len(curatedInstances))
	var instances []kg.NodeID
	memberOf := make(map[kg.NodeID][]kg.NodeID) // instance → concepts
	extentOf := make(map[kg.NodeID][]kg.NodeID) // concept → instances
	addType := func(v, c kg.NodeID) {
		b.AddType(v, c)
		memberOf[v] = append(memberOf[v], c)
		extentOf[c] = append(extentOf[c], v)
	}
	for _, is := range curatedInstances {
		id := b.AddInstance(is.name, is.aliases...)
		instIDs[is.name] = id
		instances = append(instances, id)
		names.reserve(is.name)
		for _, cn := range is.concepts {
			cid, ok := conceptIDs[cn]
			if !ok {
				return nil, nil, fmt.Errorf("kggen: instance %q has unknown concept %q", is.name, cn)
			}
			addType(id, cid)
		}
		for _, gr := range is.groups {
			groups[gr] = append(groups[gr], id)
		}
	}

	// endpoints implements preferential attachment: every edge endpoint
	// is appended, so a uniform draw is degree-proportional.
	var endpoints []kg.NodeID
	addEdge := func(u, v kg.NodeID) {
		if u == v {
			return
		}
		b.AddInstanceEdge(u, v)
		endpoints = append(endpoints, u, v)
	}
	for _, e := range curatedEdges {
		u, ok := instIDs[e[0]]
		if !ok {
			return nil, nil, fmt.Errorf("kggen: edge references unknown instance %q", e[0])
		}
		v, ok := instIDs[e[1]]
		if !ok {
			return nil, nil, fmt.Errorf("kggen: edge references unknown instance %q", e[1])
		}
		addEdge(u, v)
	}

	// ── Synthetic concepts ─────────────────────────────────────────
	// Each new concept attaches under an existing one (Zipf-biased
	// toward early/curated concepts), inheriting its domain. Because
	// later concepts may attach to earlier synthetic ones, the taxonomy
	// deepens organically.
	children := make(map[kg.NodeID][]kg.NodeID)
	parentOf := make(map[kg.NodeID][]kg.NodeID)
	for _, cs := range curatedConcepts {
		if cs.parent != "" {
			p := conceptIDs[cs.parent]
			c := conceptIDs[cs.name]
			children[p] = append(children[p], c)
			parentOf[c] = append(parentOf[c], p)
		}
	}
	parentZipf := xrand.NewZipf(r.Fork(2), 1.05, len(conceptOrder)+cfg.ExtraConcepts)
	for i := 0; i < cfg.ExtraConcepts; i++ {
		var parent kg.NodeID
		for {
			k := parentZipf.Next()
			if k < len(conceptOrder) {
				parent = conceptOrder[k]
				break
			}
		}
		name := names.concept(conceptDomain[parent])
		id := b.AddConcept(name)
		conceptDomain[id] = conceptDomain[parent]
		b.AddBroader(id, parent)
		children[parent] = append(children[parent], id)
		parentOf[id] = append(parentOf[id], parent)
		conceptOrder = append(conceptOrder, id)
	}

	// Concept subtrees that shape the instance-type mix. Real news KGs
	// are dominated by organisations and places: DBpedia's extents for
	// "Company" and "Country" dwarf those of event categories, which is
	// what keeps broad group concepts *unspecific* in Eq. 3. Without
	// this skew, a query's group concept would out-score its topic.
	subtree := func(roots ...string) []kg.NodeID {
		var out []kg.NodeID
		var queue []kg.NodeID
		seen := map[kg.NodeID]struct{}{}
		for _, name := range roots {
			if id, ok := conceptIDs[name]; ok {
				queue = append(queue, id)
				seen[id] = struct{}{}
			}
		}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			out = append(out, c)
			for _, ch := range children[c] {
				if _, ok := seen[ch]; !ok {
					seen[ch] = struct{}{}
					queue = append(queue, ch)
				}
			}
		}
		return out
	}
	bizConcepts := subtree("Companies", "Finance")
	geoConcepts := subtree("Geography")
	personConcepts := subtree("People")

	// ── Synthetic instances ────────────────────────────────────────
	// The primary type of each instance follows the news-entity mix:
	// mostly organisations/companies, then places and people, then the
	// event/topic long tail (Zipf over creation order, so curated topic
	// concepts accumulate large extents while late synthetic concepts
	// stay niche — giving |Ψ(c)| the multi-order-of-magnitude spread the
	// specificity score needs).
	typeZipf := xrand.NewZipf(r.Fork(3), 0.9, len(conceptOrder))
	bizZipf := xrand.NewZipf(r.Fork(5), 0.8, max(1, len(bizConcepts)))
	geoZipf := xrand.NewZipf(r.Fork(6), 0.8, max(1, len(geoConcepts)))
	personZipf := xrand.NewZipf(r.Fork(7), 0.8, max(1, len(personConcepts)))
	for i := 0; i < cfg.ExtraInstances; i++ {
		var primary kg.NodeID
		var name string
		switch roll := r.Float64(); {
		case roll < 0.45 && len(bizConcepts) > 0:
			primary = bizConcepts[bizZipf.Next()]
			name = names.company()
		case roll < 0.60 && len(geoConcepts) > 0:
			primary = geoConcepts[geoZipf.Next()]
			name = names.place()
		case roll < 0.72 && len(personConcepts) > 0:
			primary = personConcepts[personZipf.Next()]
			name = names.person()
		default:
			primary = conceptOrder[typeZipf.Next()]
			name = names.instance()
		}
		id := b.AddInstance(name)
		instances = append(instances, id)
		addType(id, primary)
		// Secondary types stay semantically coherent with the primary —
		// the parent concept or a sibling — the way DBpedia subject
		// assignments cluster. Unconstrained secondary types would
		// create chimera entities (a company that is also an election)
		// whose mentions leak unrelated documents into topical queries.
		extra := r.Intn(cfg.MaxTypesPerInstance) // 0..max-1 additional
		for t := 0; t < extra; t++ {
			c := relatedConcept(r, primary, parentOf, children)
			if c >= 0 && !containsID(memberOf[id], c) {
				addType(id, c)
			}
		}
	}

	// ── Curated-extent backfill ────────────────────────────────────
	// Every curated concept keeps a minimum direct extent so the
	// evaluation topics are matchable at any scale.
	minExtent := cfg.MinCuratedExtent
	if minExtent <= 0 {
		minExtent = 3
	}
	for _, cs := range curatedConcepts {
		if cs.name == RootConcept {
			continue
		}
		cid := conceptIDs[cs.name]
		for len(extentOf[cid]) < minExtent {
			id := b.AddInstance(names.instance())
			instances = append(instances, id)
			addType(id, cid)
		}
	}

	// ── Synthetic fact edges ───────────────────────────────────────
	// Per-instance degree budgets follow a heavy-tailed distribution;
	// each edge is either a community edge (to a co-member of one of the
	// instance's concepts) or a global preferential-attachment edge.
	wanted := int(cfg.AvgDegree * float64(len(instances)) / 2)
	degZipf := xrand.NewZipf(r.Fork(4), 1.4, 64)
	edgesMade := len(curatedEdges)
	for edgesMade < wanted {
		u := instances[r.Intn(len(instances))]
		budget := 1 + degZipf.Next()
		for e := 0; e < budget && edgesMade < wanted; e++ {
			var v kg.NodeID = -1
			if r.Bool(cfg.CommunityBias) {
				if cs := memberOf[u]; len(cs) > 0 {
					ext := extentOf[cs[r.Intn(len(cs))]]
					if len(ext) > 1 {
						v = ext[r.Intn(len(ext))]
					}
				}
			}
			if v < 0 {
				if len(endpoints) > 0 && r.Bool(0.7) {
					v = endpoints[r.Intn(len(endpoints))]
				} else {
					v = instances[r.Intn(len(instances))]
				}
			}
			if v != u {
				addEdge(u, v)
				edgesMade++
			}
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}

	meta := &Meta{Groups: groups, Domains: conceptDomain,
		GroupConcepts: make(map[string]kg.NodeID)}
	for grp, cname := range groupConcepts {
		cid, ok := conceptIDs[cname]
		if !ok {
			return nil, nil, fmt.Errorf("kggen: group concept %q not curated", cname)
		}
		meta.GroupConcepts[grp] = cid
	}
	for _, ts := range EvaluationTopics {
		cid, ok := conceptIDs[ts.Concept]
		if !ok {
			return nil, nil, fmt.Errorf("kggen: topic %q references unknown concept %q", ts.Name, ts.Concept)
		}
		grp := groups[ts.GroupName]
		if len(grp) == 0 {
			return nil, nil, fmt.Errorf("kggen: topic %q has empty group %q", ts.Name, ts.GroupName)
		}
		gcName, ok := groupConcepts[ts.GroupName]
		if !ok {
			return nil, nil, fmt.Errorf("kggen: group %q has no group concept", ts.GroupName)
		}
		gcid, ok := conceptIDs[gcName]
		if !ok {
			return nil, nil, fmt.Errorf("kggen: group concept %q not curated", gcName)
		}
		meta.Topics = append(meta.Topics, Topic{
			Name: ts.Name, Concept: cid,
			GroupName: ts.GroupName, GroupConcept: gcid,
			Group: grp, Domain: ts.Domain,
		})
	}
	return g, meta, nil
}

// MustGenerate is Generate that panics on error; for tests and examples.
func MustGenerate(cfg Config) (*kg.Graph, *Meta) {
	g, m, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g, m
}

// relatedConcept picks a concept near primary in the taxonomy: its
// parent (40%) or a sibling (60%); −1 when primary has no parent.
func relatedConcept(r *xrand.Rand, primary kg.NodeID, parentOf, children map[kg.NodeID][]kg.NodeID) kg.NodeID {
	parents := parentOf[primary]
	if len(parents) == 0 {
		return -1
	}
	parent := parents[r.Intn(len(parents))]
	if r.Bool(0.4) {
		return parent
	}
	sibs := children[parent]
	if len(sibs) == 0 {
		return parent
	}
	return sibs[r.Intn(len(sibs))]
}

func containsID(s []kg.NodeID, v kg.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ── Deterministic name generation ──────────────────────────────────

var synSyllables = []string{
	"al", "ar", "bel", "bor", "cal", "cor", "dan", "del", "dor", "el",
	"fen", "gal", "gor", "hal", "hel", "jor", "kel", "kor", "lan", "lor",
	"mar", "mel", "mor", "nal", "nor", "or", "pel", "quin", "ral", "ren",
	"sal", "sel", "sor", "tal", "tel", "tor", "val", "vel", "vor", "wen",
	"xan", "yor", "zan", "zel",
}

var companySuffixes = []string{
	"Corporation", "Holdings", "Group", "Industries", "Partners",
	"Capital", "Ventures", "Systems", "Technologies", "Enterprises",
}

var orgSuffixes = []string{
	"Council", "Association", "Institute", "Foundation", "Agency",
	"Alliance", "Federation", "Bureau", "Commission", "Authority",
}

var conceptNouns = map[string][]string{
	"business": {
		"companies", "markets", "products", "services", "industries",
		"transactions", "instruments", "disputes", "ventures", "assets",
	},
	"politics": {
		"policies", "movements", "institutions", "territories",
		"agreements", "campaigns", "coalitions", "reforms", "districts",
		"assemblies",
	},
}

var firstNames = []string{
	"Ada", "Boris", "Carla", "Dmitri", "Esther", "Farid", "Greta",
	"Hiro", "Ines", "Jonas", "Katya", "Luis", "Mina", "Nadia", "Omar",
	"Priya", "Quentin", "Rosa", "Stefan", "Tarek", "Uma", "Vera",
	"Wilhelm", "Ximena", "Yusuf", "Zofia",
}

var lastNames = []string{
	"Abara", "Bergstrom", "Castellano", "Dubois", "Eriksen", "Fontaine",
	"Grigoriev", "Hassan", "Ivanova", "Jensen", "Kowalski", "Lindqvist",
	"Moreau", "Nakamura", "Okonkwo", "Petrov", "Quispe", "Rahman",
	"Santos", "Tanaka", "Ulrich", "Varga", "Weiss", "Xu", "Yamada", "Zhou",
}

type nameGen struct {
	r    *xrand.Rand
	used map[string]struct{}
}

func newNameGen(r *xrand.Rand) *nameGen {
	return &nameGen{r: r, used: make(map[string]struct{})}
}

func (n *nameGen) reserve(s string) { n.used[s] = struct{}{} }

func (n *nameGen) unique(make func() string) string {
	for i := 0; ; i++ {
		s := make()
		if i > 20 {
			s = fmt.Sprintf("%s %d", s, n.r.Intn(10000))
		}
		if _, ok := n.used[s]; !ok {
			n.used[s] = struct{}{}
			return s
		}
	}
}

func (n *nameGen) word(minSyl, maxSyl int) string {
	k := n.r.Range(minSyl, maxSyl+1)
	var sb strings.Builder
	for i := 0; i < k; i++ {
		sb.WriteString(synSyllables[n.r.Intn(len(synSyllables))])
	}
	w := sb.String()
	return strings.ToUpper(w[:1]) + w[1:]
}

// concept produces a synthetic category name such as "Torvel markets".
func (n *nameGen) concept(domain string) string {
	nouns := conceptNouns[domain]
	if nouns == nil {
		nouns = conceptNouns["business"]
	}
	return n.unique(func() string {
		return n.word(2, 3) + " " + nouns[n.r.Intn(len(nouns))]
	})
}

// instance produces a synthetic entity name for the event/topic long
// tail: organisation-like or dossier-like shapes.
func (n *nameGen) instance() string {
	if n.r.Bool(0.5) {
		return n.unique(func() string {
			return n.word(2, 3) + " " + orgSuffixes[n.r.Intn(len(orgSuffixes))]
		})
	}
	return n.company()
}

// company produces a company-shaped name ("Torvel Holdings").
func (n *nameGen) company() string {
	return n.unique(func() string {
		return n.word(2, 3) + " " + companySuffixes[n.r.Intn(len(companySuffixes))]
	})
}

// place produces a place-shaped name ("Velmorburg").
func (n *nameGen) place() string {
	return n.unique(func() string {
		return n.word(2, 3) + n.placeSuffix()
	})
}

// person produces a person-shaped name ("Mina Okonkwo").
func (n *nameGen) person() string {
	return n.unique(func() string {
		return firstNames[n.r.Intn(len(firstNames))] + " " +
			lastNames[n.r.Intn(len(lastNames))]
	})
}

func (n *nameGen) placeSuffix() string {
	suffixes := []string{"ville", "burg", "stad", "port", " City", " Province"}
	return suffixes[n.r.Intn(len(suffixes))]
}
