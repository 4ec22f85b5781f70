package eval

import (
	"math"
	"sync"
	"testing"

	"ncexplorer/internal/baselines"
	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
	"ncexplorer/internal/stats"
	"ncexplorer/internal/xrand"
)

func TestDCG(t *testing.T) {
	gains := []float64{3, 2, 3, 0, 1, 2}
	// DCG@6 = 3 + 2/log2(3) + 3/2 + 0 + 1/log2(6) + 2/log2(7)
	want := 3 + 2/math.Log2(3) + 3/2.0 + 0 + 1/math.Log2(6) + 2/math.Log2(7)
	if got := DCG(gains, 6); math.Abs(got-want) > 1e-12 {
		t.Errorf("DCG = %v, want %v", got, want)
	}
	if got := DCG(gains, 1); got != 3 {
		t.Errorf("DCG@1 = %v", got)
	}
	if got := DCG(gains, 100); math.Abs(got-want) > 1e-12 {
		t.Error("k beyond length should clamp")
	}
}

func TestNDCG(t *testing.T) {
	pool := []float64{3, 2, 3, 0, 1, 2}
	// Perfect ranking ⇒ 1.
	if got := NDCG([]float64{3, 3, 2, 2, 1, 0}, pool, 6); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect NDCG = %v", got)
	}
	// Worst ranking < 1.
	worst := NDCG([]float64{0, 1, 2, 2, 3, 3}, pool, 6)
	if worst >= 1 || worst <= 0 {
		t.Errorf("worst NDCG = %v", worst)
	}
	// Zero pool ⇒ 0.
	if got := NDCG([]float64{0}, []float64{0, 0}, 1); got != 0 {
		t.Errorf("zero pool NDCG = %v", got)
	}
	// NDCG@1 with the best doc first.
	if got := NDCG([]float64{3}, pool, 1); got != 1 {
		t.Errorf("NDCG@1 = %v", got)
	}
}

func TestPoolDeterminismAndRange(t *testing.T) {
	p1 := NewPool(78, 9)
	p2 := NewPool(78, 9)
	for i := 0; i < 200; i++ {
		doc := corpus.DocID(i % 37)
		sem := float64(i%6) - 0.2
		if sem < 0 {
			sem = 0
		}
		surf := float64(i%10) / 10
		r1 := p1.Rate(42, doc, sem, surf)
		r2 := p2.Rate(42, doc, sem, surf)
		if r1 != r2 {
			t.Fatalf("pool not deterministic at %d", i)
		}
		if r1 < 0 || r1 > 5 {
			t.Fatalf("rating out of range: %v", r1)
		}
	}
}

func TestPoolTracksSemantics(t *testing.T) {
	p := NewPool(78, 3)
	// Average rating must increase with semantic grade.
	avg := func(sem float64) float64 {
		sum := 0.0
		for d := 0; d < 200; d++ {
			sum += p.Rate(7, corpus.DocID(d), sem, 0.2)
		}
		return sum / 200
	}
	lo, hi := avg(1), avg(4.5)
	if hi-lo < 2 {
		t.Errorf("ratings poorly separated: %v vs %v", lo, hi)
	}
}

func TestPoolSurfaceComponent(t *testing.T) {
	p := NewPool(78, 3)
	// With equal semantics, higher surface match ⇒ higher rating —
	// the "confidence in surface words" effect.
	avg := func(surf float64) float64 {
		sum := 0.0
		for d := 0; d < 300; d++ {
			sum += p.Rate(11, corpus.DocID(d), 2.5, surf)
		}
		return sum / 300
	}
	// Expected: surf=1 ⇒ w=0.78 ⇒ 0.22·2.5+0.78·5 = 4.45;
	// surf=0 ⇒ w=0.08 ⇒ 0.92·2.5 = 2.3; diff ≈ 2.1 (minus clamping).
	if diff := avg(1.0) - avg(0.0); diff < 1.6 || diff > 2.6 {
		t.Errorf("surface effect = %v, want ≈ 2.1", diff)
	}
	// Confidence weighting: the marginal effect of surface grows with
	// surface itself (convex response).
	low := avg(0.4) - avg(0.0)
	high := avg(1.0) - avg(0.6)
	if high <= low {
		t.Errorf("surface anchoring should be convex: Δhigh %v ≤ Δlow %v", high, low)
	}
}

// ── usersim ─────────────────────────────────────────────────────────

var (
	usOnce   sync.Once
	usG      *kg.Graph
	usC      *corpus.Corpus
	usE      *core.Engine
	usLucene *baselines.Lucene
)

func usersimWorld(t testing.TB) {
	t.Helper()
	usOnce.Do(func() {
		var meta *kggen.Meta
		usG, meta = kggen.MustGenerate(kggen.Tiny())
		usC = corpus.MustGenerate(usG, meta, corpus.Tiny())
		usE = core.NewEngine(usG, core.Options{Seed: 3, Samples: 15})
		usE.IndexCorpus(usC)
		usLucene = baselines.NewLucene()
		if err := usLucene.Index(usC); err != nil {
			panic(err)
		}
	})
}

func TestBuildTasks(t *testing.T) {
	usersimWorld(t)
	tasks := BuildTasks(usG, usC)
	if len(tasks) < 4 {
		t.Fatalf("only %d tasks buildable at tiny scale", len(tasks))
	}
	for _, task := range tasks {
		if len(task.Answers) == 0 {
			t.Errorf("task %q has no answers", task.Name)
		}
		for a := range task.Answers {
			if !usG.IsInstance(a) {
				t.Errorf("task %q answer %v is not an instance", task.Name, a)
			}
		}
	}
}

func TestSimulationsFindAnswers(t *testing.T) {
	usersimWorld(t)
	tasks := BuildTasks(usG, usC)
	task := tasks[0]
	r := xrand.New(1)
	kw := SimulateKeywordSession(r, task, usLucene, usC, usG, KeywordParams())
	nc := SimulateNCExplorerSession(xrand.New(2), task, usE, usC, NCExplorerParams())
	if kw < 0 || nc < 0 {
		t.Fatal("negative answers")
	}
	if kw > len(task.Answers) || nc > len(task.Answers) {
		t.Fatal("found more answers than exist")
	}
}

func TestStudyShapeMatchesPaper(t *testing.T) {
	// Table III: NCExplorer produces more answers on average, and the
	// one-sided Welch test is significant on most tasks.
	usersimWorld(t)
	tasks := BuildTasks(usG, usC)
	significant := 0
	for _, task := range tasks {
		res := RunStudy(task, 10, 77, usLucene, usE, usC, usG)
		mk, mn := stats.Mean(res.Keyword), stats.Mean(res.Explorer)
		if mn <= mk {
			t.Errorf("task %q: explorer mean %.2f ≤ keyword mean %.2f", task.Name, mn, mk)
			continue
		}
		w, err := stats.WelchOneSided(res.Explorer, res.Keyword)
		if err != nil {
			t.Fatal(err)
		}
		if w.P < 0.05 {
			significant++
		}
	}
	if significant < len(tasks)/2 {
		t.Errorf("only %d/%d tasks significant at α=0.05", significant, len(tasks))
	}
}

func TestStudyDeterminism(t *testing.T) {
	usersimWorld(t)
	tasks := BuildTasks(usG, usC)
	a := RunStudy(tasks[0], 5, 1, usLucene, usE, usC, usG)
	b := RunStudy(tasks[0], 5, 1, usLucene, usE, usC, usG)
	for i := range a.Keyword {
		if a.Keyword[i] != b.Keyword[i] || a.Explorer[i] != b.Explorer[i] {
			t.Fatal("study not deterministic")
		}
	}
}

func BenchmarkStudyTask(b *testing.B) {
	usersimWorld(b)
	tasks := BuildTasks(usG, usC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunStudy(tasks[0], 10, uint64(i), usLucene, usE, usC, usG)
	}
}
