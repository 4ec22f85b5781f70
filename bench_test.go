// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§IV). Each benchmark runs the corresponding experiment on
// a process-cached default-scale world (built once; its construction
// cost is excluded from the measurements). Run them all with
//
//	go test -bench=. -benchmem
//
// and see cmd/experiments for the same artifacts rendered as the
// paper's tables, plus EXPERIMENTS.md for a measured-vs-paper index.
//
// (External test package: the serving benchmarks import
// internal/server, which itself imports ncexplorer.)
package ncexplorer_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ncexplorer"
	"ncexplorer/internal/baselines"
	"ncexplorer/internal/core"
	"ncexplorer/internal/harness"
	"ncexplorer/internal/relevance"
	"ncexplorer/internal/server"
	"ncexplorer/internal/vecstore"
)

func defaultWorld(b *testing.B) *harness.World {
	b.Helper()
	return harness.GetWorld(harness.Default)
}

// BenchmarkDatasetStats regenerates the §IV dataset statistics table
// (E0): articles / total entities / linked entities per source.
func BenchmarkDatasetStats(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := w.DatasetStats()
		if len(rows) != 3 {
			b.Fatal("bad dataset stats")
		}
	}
}

// BenchmarkTableI regenerates Table I (E1): NDCG@{1,5,10} for six
// topics × five methods, with and without the GPT re-rank.
func BenchmarkTableI(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topics := w.TableI()
		if len(topics) != 6 {
			b.Fatal("bad Table I")
		}
	}
}

// BenchmarkTableII regenerates Table II (E2): the mean NDCG impact of
// GPT re-ranking per method.
func BenchmarkTableII(b *testing.B) {
	w := defaultWorld(b)
	topics := w.TableI()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := harness.TableII(topics)
		if len(rows) != 5 {
			b.Fatal("bad Table II")
		}
	}
}

// BenchmarkTableIII regenerates Table III (E3): the simulated analyst
// productivity study with Welch p-values.
func BenchmarkTableIII(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := w.TableIII(10)
		if len(rows) == 0 {
			b.Fatal("bad Table III")
		}
	}
}

// BenchmarkFig4Indexing regenerates Fig. 4 (E4): per-article indexing
// time by source and method, with NCExplorer's link/score breakdown.
func BenchmarkFig4Indexing(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := w.Fig4(100)
		if len(rows) != 3 {
			b.Fatal("bad Fig 4")
		}
	}
}

// BenchmarkFig5Retrieval regenerates Fig. 5 (E5): retrieval latency
// versus the number of query concepts.
func BenchmarkFig5Retrieval(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := w.Fig5(100)
		if len(points) != 3 {
			b.Fatal("bad Fig 5")
		}
	}
}

// BenchmarkFig6ContextRelevance regenerates Fig. 6 (E6): context
// relevance separation between true and negative-sampled concepts.
func BenchmarkFig6ContextRelevance(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := w.Fig6(100)
		if len(rows) == 0 {
			b.Fatal("bad Fig 6")
		}
	}
}

// BenchmarkFig7Sampling regenerates Fig. 7 (E7): random-walk estimator
// convergence with and without the reachability index.
func BenchmarkFig7Sampling(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := w.Fig7(20, 5)
		if len(points) == 0 {
			b.Fatal("bad Fig 7")
		}
	}
}

// BenchmarkFig8Ablation regenerates Fig. 8 (E8): the drill-down
// component ablation (C, C+S, C+S+D).
func BenchmarkFig8Ablation(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := w.Fig8()
		if len(rows) != 3 {
			b.Fatal("bad Fig 8")
		}
	}
}

// BenchmarkReachIndexBuild regenerates the §IV-A2 reachability-index
// construction measurement (E9) at this repository's scale.
func BenchmarkReachIndexBuild(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := w.ReachIndexBuild(500)
		if res.Bytes == 0 {
			b.Fatal("bad reach build")
		}
	}
}

// BenchmarkGPTDirect runs the paper's stated future-work study: GPT as
// a direct ranker over the whole corpus versus retrieve-then-re-rank.
func BenchmarkGPTDirect(b *testing.B) {
	w := defaultWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := w.GPTDirect()
		if len(rows) != 6 {
			b.Fatal("bad GPT-direct study")
		}
	}
}

// ── Operation-level micro benchmarks ────────────────────────────────

// BenchmarkRollUpQuery measures a single warm roll-up query (the
// operation behind Fig. 5's NCExplorer series).
func BenchmarkRollUpQuery(b *testing.B) {
	w := defaultWorld(b)
	topic := w.Meta.Topics[0]
	q := core.Query{topic.Concept, topic.GroupConcept}
	w.Engine.RollUp(q, 10) // warm the pooled scratch and ceilings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.RollUp(q, 10)
	}
}

// BenchmarkDrillDownQuery measures a single drill-down suggestion
// round.
func BenchmarkDrillDownQuery(b *testing.B) {
	w := defaultWorld(b)
	topic := w.Meta.Topics[0]
	q := core.Query{topic.Concept, topic.GroupConcept}
	w.Engine.DrillDown(q, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.DrillDown(q, 10)
	}
}

// ── Ablation benches for DESIGN.md's design choices ─────────────────

// BenchmarkAblationExactVsSampledConn compares exact path counting
// against the sampled estimator for one concept-document scoring pass —
// the trade the paper's §III-C estimator exists to win.
func BenchmarkAblationExactVsSampledConn(b *testing.B) {
	w := defaultWorld(b)
	exact := relevance.NewScorer(w.G, w.Engine, nil, relevance.Options{Exact: true, MaxExtent: 300})
	sampled := relevance.NewScorer(w.G, w.Engine, nil, relevance.Options{Samples: 50, MaxExtent: 300})
	topic := w.Meta.Topics[0]
	doc := int32(w.Engine.MatchedDocs(core.Query{topic.Concept})[0])
	rnd := w.QueryRand(1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.Conn(topic.Concept, doc, nil)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sampled.Conn(topic.Concept, doc, rnd)
		}
	})
}

// ── Serving-layer benchmarks (internal/server + internal/qcache) ────

var (
	servingOnce     sync.Once
	servingExplorer *ncexplorer.Explorer
)

// servingWorld builds the tiny-scale Explorer the serving benchmarks
// share; the serving stack's cached-vs-uncached gap, not world scale,
// is what these measure.
func servingWorld(b *testing.B) *ncexplorer.Explorer {
	b.Helper()
	servingOnce.Do(func() {
		x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
		if err != nil {
			panic(err)
		}
		servingExplorer = x
	})
	return servingExplorer
}

// BenchmarkServerRollUp measures one roll-up request through the full
// HTTP serving stack (mux → handler → cache → engine → JSON), cached
// versus uncached — the serving-latency baseline for future PRs.
func BenchmarkServerRollUp(b *testing.B) {
	x := servingWorld(b)
	topics := x.EvaluationTopics()
	body, err := json.Marshal(map[string]any{
		"concepts": []string{topics[0][0], topics[0][1]},
		"k":        10,
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, s *server.Server) {
		h := s.Handler()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		run(b, server.New(x, server.Options{CacheCapacity: -1}))
	})
	b.Run("cached", func(b *testing.B) {
		s := server.New(x, server.Options{})
		req := httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(body))
		s.Handler().ServeHTTP(httptest.NewRecorder(), req) // warm the cache
		b.ResetTimer()
		run(b, s)
	})
}

// BenchmarkAblationIVFVsExact compares the vector store's exact scan
// against the IVF index at equal k, the trade Qdrant-class engines make
// (Fig. 5 discussion).
func BenchmarkAblationIVFVsExact(b *testing.B) {
	w := defaultWorld(b)
	bert := baselines.NewBERT()
	if err := bert.Index(w.Corpus); err != nil {
		b.Fatal(err)
	}
	emb := bert.Embedder()
	store := vecstore.New(emb.Dim())
	for i := range w.Corpus.Docs {
		if err := store.Add(int32(i), emb.EmbedText(w.Corpus.Docs[i].Text())); err != nil {
			b.Fatal(err)
		}
	}
	ivf := vecstore.BuildIVF(store, 32, 5, 1)
	q := emb.EmbedText("fraud investigation at the exchange")
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.Search(q, 10)
		}
	})
	b.Run("ivf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ivf.Search(q, 10, 4)
		}
	})
}
