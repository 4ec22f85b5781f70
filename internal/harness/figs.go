package harness

import (
	"fmt"
	"strings"
	"time"

	"ncexplorer/internal/baselines"
	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
)

// ── E4: Fig. 4 — indexing time per article by source ───────────────

// Fig4Row reports the average per-article indexing time (seconds) of
// every method for one news source, plus NCExplorer's cost breakdown
// (entity linking vs relevance scoring — the paper reports 91.8% /
// 7.1%).
type Fig4Row struct {
	Source       string
	PerMethodSec map[string]float64
	LinkShare    float64 // NCExplorer: fraction of time in entity linking
	ScoreShare   float64 // NCExplorer: fraction in relevance scoring
}

// Fig4 measures indexing cost over up to perSource articles from each
// source (the paper uses 100). Methods are constructed fresh and run
// single-threaded so the figure reports true per-article cost.
func (w *World) Fig4(perSource int) []Fig4Row {
	if perSource <= 0 {
		perSource = 100
	}
	var rows []Fig4Row
	for _, src := range corpus.Sources {
		docs := w.Corpus.BySource(src)
		if len(docs) > perSource {
			docs = docs[:perSource]
		}
		// Re-ID into a dense mini corpus.
		mini := &corpus.Corpus{}
		for i, d := range docs {
			cp := *d
			cp.ID = corpus.DocID(i)
			mini.Docs = append(mini.Docs, cp)
		}
		row := Fig4Row{Source: src.String(), PerMethodSec: map[string]float64{}}
		perDoc := float64(len(mini.Docs))

		fresh := []baselines.Searcher{
			baselines.NewLucene(),
			baselines.NewBERT(),
			baselines.NewNewsLink(w.G, w.Linker),
			baselines.NewNewsLinkBERT(w.G, w.Linker),
		}
		for _, s := range fresh {
			start := time.Now()
			if err := s.Index(mini); err != nil {
				panic(err)
			}
			row.PerMethodSec[s.Name()] = time.Since(start).Seconds() / perDoc
		}
		engine := core.NewEngine(w.G, core.Options{
			Seed: w.Seed, Samples: w.Engine.Options().Samples, Workers: 1,
		})
		start := time.Now()
		st := engine.IndexCorpus(mini)
		row.PerMethodSec[MethodNCExplorer] = time.Since(start).Seconds() / perDoc
		if total := st.LinkNanos + st.ScoreNanos; total > 0 {
			row.LinkShare = float64(st.LinkNanos) / float64(total)
			row.ScoreShare = float64(st.ScoreNanos) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFig4 renders the indexing-time figure as a table.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "Source")
	for _, m := range MethodOrder {
		fmt.Fprintf(&b, " %14s", m)
	}
	fmt.Fprintf(&b, "   %s\n", "NCE link/score split")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Source)
		for _, m := range MethodOrder {
			fmt.Fprintf(&b, " %12.2fms", r.PerMethodSec[m]*1000)
		}
		fmt.Fprintf(&b, "   %.1f%% / %.1f%%\n", r.LinkShare*100, r.ScoreShare*100)
	}
	return b.String()
}

// ── E5: Fig. 5 — retrieval time vs number of query concepts ────────

// Fig5Point reports mean per-query latency (seconds) for queries with
// a given number of concepts.
type Fig5Point struct {
	Concepts     int
	PerMethodSec map[string]float64
}

// Fig5 times nQueries queries per point for 1–3 query concepts,
// mirroring the paper's retrieval-efficiency study.
func (w *World) Fig5(nQueries int) []Fig5Point {
	if nQueries <= 0 {
		nQueries = 100
	}
	pool := w.conceptPool()
	var out []Fig5Point
	for nc := 1; nc <= 3; nc++ {
		r := w.queryRand(uint64(5000 + nc))
		queries := make([]baselines.Query, nQueries)
		for i := range queries {
			seen := map[kg.NodeID]struct{}{}
			var concepts []kg.NodeID
			var names []string
			for len(concepts) < nc {
				c := pool[r.Intn(len(pool))]
				if _, dup := seen[c]; dup {
					continue
				}
				seen[c] = struct{}{}
				concepts = append(concepts, c)
				names = append(names, w.G.Name(c))
			}
			queries[i] = baselines.Query{Text: strings.Join(names, " "), Concepts: concepts}
		}
		pt := Fig5Point{Concepts: nc, PerMethodSec: map[string]float64{}}
		for _, s := range w.Searchers {
			start := time.Now()
			for _, q := range queries {
				s.Search(q, 10)
			}
			pt.PerMethodSec[s.Name()] = time.Since(start).Seconds() / float64(nQueries)
		}
		out = append(out, pt)
	}
	return out
}

// conceptPool gathers query-worthy concepts: the evaluation topics,
// their group concepts, and every concept with a non-trivial extent.
func (w *World) conceptPool() []kg.NodeID {
	var pool []kg.NodeID
	for _, t := range w.Meta.Topics {
		pool = append(pool, t.Concept, t.GroupConcept)
	}
	w.G.Concepts(func(c kg.NodeID) bool {
		if w.G.ExtentSize(c) >= 3 {
			pool = append(pool, c)
		}
		return true
	})
	return pool
}

// FormatFig5 renders the retrieval-time figure as a table.
func FormatFig5(points []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "#Concepts")
	for _, m := range MethodOrder {
		fmt.Fprintf(&b, " %14s", m)
	}
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d", p.Concepts)
		for _, m := range MethodOrder {
			fmt.Fprintf(&b, " %12.3fms", p.PerMethodSec[m]*1000)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ── E9: reachability-index construction cost (§IV-A2) ──────────────

// ReachBuildResult reports index construction at this repo's scale
// (the paper: 260 s and 100 GB for full DBpedia).
type ReachBuildResult struct {
	Targets  int
	Seconds  float64
	Bytes    int64 // resident table bytes (entries × 5)
	KGNodes  int
	KGEdges  int64
	HopBound int
}

// ReachIndexBuild precomputes distance tables for nTargets instance
// entities (deterministically sampled) and reports cost.
func (w *World) ReachIndexBuild(nTargets int) ReachBuildResult {
	if nTargets <= 0 {
		nTargets = 500
	}
	var instances []kg.NodeID
	w.G.Instances(func(v kg.NodeID) bool {
		instances = append(instances, v)
		return true
	})
	r := w.queryRand(9000)
	targets := make([]kg.NodeID, 0, nTargets)
	for len(targets) < nTargets && len(targets) < len(instances) {
		targets = append(targets, instances[r.Intn(len(instances))])
	}
	tau := w.Engine.Options().Tau
	ix := reach.New(w.G, tau)
	start := time.Now()
	bytes := ix.Precompute(targets)
	return ReachBuildResult{
		Targets:  len(targets),
		Seconds:  time.Since(start).Seconds(),
		Bytes:    bytes,
		KGNodes:  w.G.NumNodes(),
		KGEdges:  w.G.NumInstanceEdges(),
		HopBound: tau,
	}
}

// FormatReachBuild renders the construction-cost line.
func FormatReachBuild(r ReachBuildResult) string {
	return fmt.Sprintf(
		"reachability index: %d targets over %d nodes / %d edges (k=%d): %.2fs, %.1f MB\n",
		r.Targets, r.KGNodes, r.KGEdges, r.HopBound,
		r.Seconds, float64(r.Bytes)/1e6)
}
