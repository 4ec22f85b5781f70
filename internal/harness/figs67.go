package harness

import (
	"fmt"
	"strings"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/relevance"
	"ncexplorer/internal/rw"
	"ncexplorer/internal/xrand"
)

// pairSample is one ⟨concept, document⟩ inverted-index entry used by
// the Fig. 6/7 experiments.
type pairSample struct {
	c   kg.NodeID
	doc int32
}

// samplePairs draws up to n inverted-index entries ⟨c, d⟩ for one
// source (concepts actually matched in the document, as the paper
// samples), deterministically.
func (w *World) samplePairs(src corpus.Source, n int, label uint64) []pairSample {
	r := w.queryRand(label ^ uint64(src+1)<<40)
	var all []pairSample
	for _, d := range w.Corpus.BySource(src) {
		for _, cs := range w.Engine.DocConcepts(d.ID) {
			all = append(all, pairSample{c: cs.Concept, doc: int32(d.ID)})
		}
	}
	if len(all) == 0 {
		return nil
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// exactScorer builds an exact-connectivity scorer over the engine's
// document view. MaxExtent is kept modest so exact path enumeration
// stays tractable; the same cap applies to relevant and negative pairs,
// preserving the comparison.
func (w *World) exactScorer(tau int) *relevance.Scorer {
	return relevance.NewScorer(w.G, w.Engine, nil, relevance.Options{
		Tau: tau, Beta: 0.5, Exact: true, MaxExtent: 300,
	})
}

// ── E6: Fig. 6 — context relevance effectiveness ────────────────────

// Fig6Row reports, for one source and hop bound τ, the mean context
// relevance cdrc of true inverted-index pairs versus negative-sampled
// concepts, and the fraction of zero scores among true pairs (the
// paper reports 55% at τ=1 vs 22.4% at τ=2).
type Fig6Row struct {
	Source       string
	Tau          int
	RelevantMean float64
	NegativeMean float64
	ZeroFrac     float64
	Pairs        int
}

// Fig6 runs the negative-sampling study over nPairs entries per source.
func (w *World) Fig6(nPairs int) []Fig6Row {
	if nPairs <= 0 {
		nPairs = 100
	}
	// Candidate negatives: populated concepts (deterministic order).
	var concepts []kg.NodeID
	w.G.Concepts(func(c kg.NodeID) bool {
		if w.G.ExtentSize(c) >= 2 {
			concepts = append(concepts, c)
		}
		return true
	})
	var rows []Fig6Row
	for _, src := range corpus.Sources {
		pairs := w.samplePairs(src, nPairs, 6001)
		for tau := 1; tau <= 3; tau++ {
			s := w.exactScorer(tau)
			r := w.queryRand(uint64(6100+tau) ^ uint64(src)<<32)
			var relSum, negSum float64
			zero := 0
			count := 0
			for _, p := range pairs {
				rel := s.ContextRel(p.c, p.doc, nil)
				// Negative concept: random populated concept that does
				// NOT match the document.
				var neg float64
				for attempt := 0; attempt < 20; attempt++ {
					cn := concepts[r.Intn(len(concepts))]
					if cn == p.c || s.Matches(cn, p.doc) {
						continue
					}
					neg = s.ContextRel(cn, p.doc, nil)
					break
				}
				relSum += rel
				negSum += neg
				if rel == 0 {
					zero++
				}
				count++
			}
			if count == 0 {
				continue
			}
			rows = append(rows, Fig6Row{
				Source: src.String(), Tau: tau,
				RelevantMean: relSum / float64(count),
				NegativeMean: negSum / float64(count),
				ZeroFrac:     float64(zero) / float64(count),
				Pairs:        count,
			})
		}
	}
	return rows
}

// FormatFig6 renders the context-relevance figure as a table.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %4s %14s %14s %10s %6s\n",
		"Source", "τ", "relevant cdrc", "negative cdrc", "zero-frac", "pairs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %4d %14.4f %14.4f %9.1f%% %6d\n",
			r.Source, r.Tau, r.RelevantMean, r.NegativeMean, r.ZeroFrac*100, r.Pairs)
	}
	return b.String()
}

// ── E7: Fig. 7 — RW estimator convergence ───────────────────────────

// Fig7SampleCounts are the x-axis sample counts of Fig. 7.
var Fig7SampleCounts = []int{1, 2, 5, 10, 20, 30, 40, 50}

// Fig7Point reports the mean relative estimation error of cdrc for a
// source at a sample count, with or without reachability-index
// guidance.
type Fig7Point struct {
	Source  string
	Samples int
	Guided  bool
	AvgErr  float64
}

// Fig7 measures estimator convergence on nPairs inverted-index entries
// per source, repeating each estimate reps times.
func (w *World) Fig7(nPairs, reps int) []Fig7Point {
	if nPairs <= 0 {
		nPairs = 20
	}
	if reps <= 0 {
		reps = 5
	}
	tau := 2
	beta := 0.5
	exact := w.exactScorer(tau)
	ix := reach.New(w.G, tau)
	guided := rw.New(w.G, ix, tau, beta)
	unguided := rw.New(w.G, nil, tau, beta)

	var out []Fig7Point
	for _, src := range corpus.Sources {
		pairs := w.samplePairs(src, nPairs*3, 7001)
		// Keep pairs with signal (non-zero exact connectivity) and a
		// context entity to walk to.
		type target struct {
			ext   []kg.NodeID
			v     kg.NodeID
			exact float64
		}
		var targets []target
		for _, p := range pairs {
			if len(targets) >= nPairs {
				break
			}
			_, context := exact.Split(p.c, p.doc)
			if len(context) == 0 {
				continue
			}
			best := context[0]
			bestW := -1.0
			for _, v := range context {
				if wt := w.Engine.EntityWeight(v, p.doc); wt > bestW {
					best, bestW = v, wt
				}
			}
			ext, _ := exact.Extent(p.c)
			if len(ext) == 0 {
				continue
			}
			ex := exact.PairScore(ext, best, nil)
			if ex <= 0 {
				continue
			}
			targets = append(targets, target{ext: ext, v: best, exact: ex})
		}
		if len(targets) == 0 {
			continue
		}
		for _, n := range Fig7SampleCounts {
			for _, mode := range []bool{true, false} {
				est := unguided
				if mode {
					est = guided
				}
				errSum := 0.0
				count := 0
				for ti, tg := range targets {
					for rep := 0; rep < reps; rep++ {
						r := xrand.Stream(w.Seed^uint64(7200+n),
							uint64(ti)<<20|uint64(rep)<<1|boolBit(mode)|uint64(src)<<40)
						got := est.EstimateConcept(r, tg.ext, tg.v, n)
						errSum += abs(got-tg.exact) / tg.exact
						count++
					}
				}
				out = append(out, Fig7Point{
					Source: src.String(), Samples: n, Guided: mode,
					AvgErr: errSum / float64(count),
				})
			}
		}
	}
	return out
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FormatFig7 renders the convergence figure as a table.
func FormatFig7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-9s", "Source", "mode")
	for _, n := range Fig7SampleCounts {
		fmt.Fprintf(&b, " %7s", fmt.Sprintf("n=%d", n))
	}
	b.WriteByte('\n')
	bySource := map[string]map[bool]map[int]float64{}
	var order []string
	for _, p := range points {
		if bySource[p.Source] == nil {
			bySource[p.Source] = map[bool]map[int]float64{true: {}, false: {}}
			order = append(order, p.Source)
		}
		bySource[p.Source][p.Guided][p.Samples] = p.AvgErr
	}
	for _, src := range order {
		for _, guided := range []bool{true, false} {
			mode := "w/o index"
			if guided {
				mode = "w/ index"
			}
			fmt.Fprintf(&b, "%-14s %-9s", src, mode)
			for _, n := range Fig7SampleCounts {
				fmt.Fprintf(&b, " %6.1f%%", bySource[src][guided][n]*100)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
