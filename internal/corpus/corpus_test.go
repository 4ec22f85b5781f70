package corpus

import (
	"strings"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
	"ncexplorer/internal/nlp"
)

func world(t testing.TB) (*kg.Graph, *kggen.Meta, *Corpus) {
	t.Helper()
	g, meta := kggen.MustGenerate(kggen.Tiny())
	c := MustGenerate(g, meta, Tiny())
	return g, meta, c
}

func TestGenerateCounts(t *testing.T) {
	_, _, c := world(t)
	cfg := Tiny()
	want := cfg.Docs[SeekingAlpha] + cfg.Docs[NYT] + cfg.Docs[Reuters]
	if c.Len() != want {
		t.Fatalf("corpus size = %d, want %d", c.Len(), want)
	}
	for _, src := range Sources {
		if got := len(c.BySource(src)); got != cfg.Docs[src] {
			t.Errorf("%s count = %d, want %d", src, got, cfg.Docs[src])
		}
	}
	for i := range c.Docs {
		if c.Docs[i].ID != DocID(i) {
			t.Fatalf("doc %d has ID %d", i, c.Docs[i].ID)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g, meta := kggen.MustGenerate(kggen.Tiny())
	c1 := MustGenerate(g, meta, Tiny())
	c2 := MustGenerate(g, meta, Tiny())
	if c1.Len() != c2.Len() {
		t.Fatal("sizes differ")
	}
	for i := range c1.Docs {
		if c1.Docs[i].Title != c2.Docs[i].Title || c1.Docs[i].Body != c2.Docs[i].Body {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
	cfg := Tiny()
	cfg.Seed = 999
	c3 := MustGenerate(g, meta, cfg)
	diff := 0
	for i := range c1.Docs {
		if c1.Docs[i].Title != c3.Docs[i].Title {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical corpus")
	}
}

func TestDocumentsHaveContent(t *testing.T) {
	_, _, c := world(t)
	for i := range c.Docs {
		d := &c.Docs[i]
		if d.Title == "" || len(d.Body) < 80 {
			t.Fatalf("doc %d underfilled: title=%q len(body)=%d", i, d.Title, len(d.Body))
		}
		if strings.Contains(d.Title, "{") || strings.Contains(d.Body, "{") {
			t.Fatalf("doc %d has unfilled slot: %q / %q", i, d.Title, d.Body)
		}
		if len(d.GoldEntities) == 0 {
			t.Fatalf("doc %d has no gold entities", i)
		}
	}
}

func TestGoldLabelsSane(t *testing.T) {
	_, _, c := world(t)
	topical := 0
	for i := range c.Docs {
		d := &c.Docs[i]
		for _, grade := range d.Topics {
			if grade < 0 || grade > 5 {
				t.Fatalf("doc %d grade out of range: %v", i, grade)
			}
		}
		if !d.Distractor {
			topical++
			// Non-distractors must have at least one strong topic.
			best := 0.0
			for _, grade := range d.Topics {
				if grade > best {
					best = grade
				}
			}
			if best < 4.0 {
				t.Fatalf("doc %d best grade = %v, want ≥4 for topical doc", i, best)
			}
		}
	}
	if topical == 0 {
		t.Fatal("no topical documents generated")
	}
}

func TestDistractorsPresent(t *testing.T) {
	_, _, c := world(t)
	n := 0
	for i := range c.Docs {
		if c.Docs[i].Distractor {
			n++
			for _, grade := range c.Docs[i].Topics {
				if grade > 2.0 {
					t.Fatalf("distractor %d has strong topic grade %v", i, grade)
				}
			}
		}
	}
	frac := float64(n) / float64(c.Len())
	if frac < 0.04 || frac > 0.25 {
		t.Errorf("distractor fraction = %v, want near 0.12", frac)
	}
}

func TestGoldEntitiesAreMentioned(t *testing.T) {
	// Focus entities must actually appear in the text (by name or
	// alias) so that entity linking can rediscover them.
	g, _, c := world(t)
	missed := 0
	checked := 0
	for i := range c.Docs {
		d := &c.Docs[i]
		text := d.Text()
		for _, e := range d.GoldEntities {
			checked++
			if strings.Contains(text, g.Name(e)) {
				continue
			}
			found := false
			for _, al := range g.Aliases(e) {
				if strings.Contains(text, al) {
					found = true
					break
				}
			}
			if !found {
				missed++
			}
		}
	}
	// Template sentence subsets may omit a slot occasionally; a small
	// miss rate is tolerable, a large one means broken templates.
	if float64(missed) > 0.30*float64(checked) {
		t.Errorf("%d/%d gold entities not found in text", missed, checked)
	}
}

func TestEvalTopicsCovered(t *testing.T) {
	// Every Table-I query (topic concept + group concept) must have a
	// reasonable number of on-topic documents mentioning group members.
	g, meta, c := world(t)
	for _, topic := range meta.Topics {
		hits := 0
		for i := range c.Docs {
			d := &c.Docs[i]
			if d.Gold(topic.Concept) < 3.5 {
				continue
			}
			for _, e := range d.GoldEntities {
				if inGroup(e, topic.Group) {
					hits++
					break
				}
			}
		}
		if hits < 3 {
			t.Errorf("topic %q has only %d on-topic docs with group entities", topic.Name, hits)
		}
		_ = g
	}
}

func inGroup(v kg.NodeID, grp []kg.NodeID) bool {
	for _, x := range grp {
		if x == v {
			return true
		}
	}
	return false
}

func TestLinkedRatioPerSource(t *testing.T) {
	// Reproduces the shape of the paper's dataset table: every source
	// links a substantial majority-but-not-all of mentions, with
	// reuters the lowest (paper: 51% vs 63.9% / 68.6%).
	g, _, c := world(t)
	linker := nlp.NewLinker(g)
	ratios := map[Source]float64{}
	for _, src := range Sources {
		var linked, total int
		for _, d := range c.BySource(src) {
			ann := linker.Annotate(d.Text())
			linked += len(ann.Mentions)
			total += ann.TotalMentions()
		}
		if total == 0 {
			t.Fatalf("%s produced no mentions", src)
		}
		ratios[src] = float64(linked) / float64(total)
		if ratios[src] < 0.35 || ratios[src] > 0.95 {
			t.Errorf("%s linked ratio = %.2f, want within (0.35, 0.95)", src, ratios[src])
		}
	}
	if ratios[Reuters] >= ratios[SeekingAlpha] || ratios[Reuters] >= ratios[NYT] {
		t.Errorf("reuters should have the lowest linked ratio: %v", ratios)
	}
}

func TestSentenceLengthBySource(t *testing.T) {
	_, _, c := world(t)
	avg := map[Source]float64{}
	for _, src := range Sources {
		docs := c.BySource(src)
		total := 0
		for _, d := range docs {
			total += len(nlp.Sentences(d.Body))
		}
		avg[src] = float64(total) / float64(len(docs))
	}
	if avg[NYT] <= avg[SeekingAlpha] {
		t.Errorf("NYT articles should be longer than seekingalpha: %v", avg)
	}
}

func TestSourceStats(t *testing.T) {
	s := SourceStats{Source: Reuters, Articles: 10, TotalMentions: 100, LinkedMentions: 51}
	if r := s.LinkedRatio(); r != 0.51 {
		t.Errorf("ratio = %v", r)
	}
	empty := SourceStats{}
	if empty.LinkedRatio() != 0 {
		t.Error("empty ratio should be 0")
	}
}

func TestDocHelpers(t *testing.T) {
	d := Document{
		Title:  "T",
		Body:   "B",
		Topics: map[kg.NodeID]float64{3: 4.5},
	}
	if d.Text() != "T. B" {
		t.Errorf("Text() = %q", d.Text())
	}
	if d.Gold(3) != 4.5 || d.Gold(4) != 0 {
		t.Error("Gold lookup wrong")
	}
}

func BenchmarkGenerateTinyCorpus(b *testing.B) {
	g, meta := kggen.MustGenerate(kggen.Tiny())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustGenerate(g, meta, Tiny())
	}
}
