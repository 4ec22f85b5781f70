// Package ncexplorer is the public facade of the NCExplorer
// reproduction: OLAP-style news exploration over a knowledge graph, as
// described in "Enabling Roll-Up and Drill-Down Operations in News
// Exploration with Knowledge Graphs for Due Diligence and Risk
// Management" (ICDE 2024).
//
// An Explorer owns a knowledge graph, a news corpus, and an indexed
// engine. Users phrase *concept pattern queries* — sets of KG concepts
// such as {"Money laundering", "Swiss bank"} — and navigate with two
// operations:
//
//   - RollUp retrieves the most relevant articles matching every
//     concept in the query, each with a per-concept explanation (which
//     entity matched, how strongly);
//   - DrillDown suggests ranked subtopics that refine the current
//     query, scored by coverage × specificity × diversity.
//
// The zero-dependency build ships a synthetic world generator standing
// in for DBpedia and the paper's crawled news corpus; see DESIGN.md for
// the substitution rationale. All randomness is seeded: equal
// configurations produce byte-identical results.
//
// Quick start:
//
//	x, err := ncexplorer.New(ncexplorer.Config{})
//	articles, err := x.RollUp([]string{"Bitcoin exchange", "Financial crime"}, 5)
//	subtopics, err := x.DrillDown([]string{"Bitcoin exchange"}, 10)
package ncexplorer

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
	"ncexplorer/internal/watch"
)

// Config controls the synthetic world and the engine. The zero value
// is a sensible laptop-scale default.
type Config struct {
	// Seed drives every stochastic component (default 42).
	Seed uint64
	// Scale selects the world size: "tiny" (unit-test sized) or
	// "default" (experiment sized). Default "default".
	Scale string
	// Samples is the number of random walks per connectivity estimate
	// (paper default 50).
	Samples int
	// Tau is the hop constraint τ (paper default 2).
	Tau int
	// Beta is the path damping factor β (paper default 0.5).
	Beta float64
	// MaxSegments is the index segment count above which ingested
	// segments are merged in the background (default 4).
	MaxSegments int
	// MaxWatchlists caps concurrently registered watchlists (default 64).
	MaxWatchlists int
	// AlertBuffer is the per-watchlist alert retention window — the ring
	// capacity backing SSE catch-up and webhook redelivery (default 256).
	AlertBuffer int
	// ShardCount > 1 builds this Explorer as one shard of a federated
	// corpus: it indexes only the Shard-th doc-disjoint slice of the
	// seed corpus (keeping global document IDs) and expects peer
	// statistics via the engine's SetRemoteStats exchange before its
	// scores are corpus-global. Zero or one means monolithic.
	ShardCount int
	// Shard is this node's shard index in [0, ShardCount).
	Shard int
}

// Article is one roll-up result — and the article inside every
// standing-query alert, which the same renderer produces. Explanations
// are present when the query asked for them (RollUp and alerts always
// do; RollUpQuery honours its Explain toggle).
type Article = watch.Article

// Explanation attributes part of an article's relevance to one query
// concept: the concept-document relevance (cdr) and the pivot entity
// whose mention carried the match.
type Explanation = watch.Explanation

// SubtopicSuggestion is one drill-down suggestion.
type SubtopicSuggestion struct {
	Concept     string  `json:"concept"`
	Score       float64 `json:"score"`
	Coverage    float64 `json:"coverage"`
	Specificity float64 `json:"specificity"`
	Diversity   float64 `json:"diversity"`
	MatchedDocs int     `json:"matched_docs"`
}

// CacheCounters is one engine cache's effectiveness snapshot. Misses
// count computations actually performed; Coalesced counts callers that
// piggybacked on another goroutine's in-flight computation for the
// same key.
type CacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Entries   int64 `json:"entries"`
}

// EngineCacheStats reports the engine's query-path caches: Match
// counts the current generation's concept plans (Entries only: plans
// are built at swap time, never faulted in).
type EngineCacheStats struct {
	Match CacheCounters `json:"match"`
}

// IngestCounters reports live-ingestion throughput: successful
// batches, documents added, their summed wall-clock cost, and
// background segment merges.
type IngestCounters struct {
	Batches int64 `json:"batches"`
	Docs    int64 `json:"docs"`
	Nanos   int64 `json:"nanos"`
	Merges  int64 `json:"merges"`
	// ConnWalks counts the connectivity-factor estimates (random-walk
	// batches) this process ran: the seed build, ingest pre-warms and
	// any pair a plan build found no stored value for. A warm open of a
	// store whose segments all carry conn companions adds none.
	ConnWalks int64 `json:"conn_walks"`
	// DocsDefaultedTime counts ingested documents that carried no
	// publication time and were stamped with the ingest wall clock.
	DocsDefaultedTime int64 `json:"docs_defaulted_time"`
}

// PersistCounters reports durable-snapshot activity (see Stats.Persist).
type PersistCounters struct {
	Saves            int64 `json:"saves"`
	Opens            int64 `json:"opens"`
	Checkpoints      int64 `json:"checkpoints"`
	SegmentsWritten  int64 `json:"segments_written"`
	SegmentsReused   int64 `json:"segments_reused"`
	BytesWritten     int64 `json:"bytes_written"`
	BytesRead        int64 `json:"bytes_read"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
}

// ReachCounters reports the k-hop reachability index that guides
// connectivity walks (see Stats.Reach).
type ReachCounters struct {
	Tables int64 `json:"tables"`
	Bytes  int64 `json:"bytes"`
	Builds int64 `json:"builds"`
	Hits   int64 `json:"hits"`
}

// Stats summarises an Explorer's indexed world: corpus size, graph
// dimensions, and the indexing cost split the engine measured. It is
// the payload behind a server's /statsz endpoint.
type Stats struct {
	Articles       int   `json:"articles"`
	Nodes          int   `json:"nodes"`
	Instances      int   `json:"instances"`
	Concepts       int   `json:"concepts"`
	InstanceEdges  int64 `json:"instance_edges"`
	BroaderEdges   int64 `json:"broader_edges"`
	TypeAssertions int64 `json:"type_assertions"`
	// Wall-clock nanoseconds spent entity-linking and concept-scoring
	// the seed corpus at build time (single-threaded equivalents).
	LinkNanos  int64 `json:"link_nanos"`
	ScoreNanos int64 `json:"score_nanos"`
	// Generation is the index snapshot generation currently serving:
	// 1 after New, +1 per ingested batch.
	Generation uint64 `json:"generation"`
	// Segments lists per-segment document counts of the current
	// snapshot, in base order.
	Segments []int `json:"segments"`
	// Ingest reports live-ingestion throughput counters.
	Ingest IngestCounters `json:"ingest"`
	// Persist reports durable-snapshot activity: saves, warm opens,
	// per-ingest checkpoints, segment files written vs reused, bytes
	// moved, and checkpoint failures (which never fail the triggering
	// ingest — they mean the data directory lags until the next
	// checkpoint succeeds).
	Persist PersistCounters `json:"persist"`
	// EngineCache is a live snapshot of the engine's query-path
	// caches, refreshed on every Stats call.
	EngineCache EngineCacheStats `json:"engine_cache"`
	// Watch reports standing-query activity: live watchlists, alerts
	// fired/delivered/dropped, webhook retries and failures, and live
	// SSE subscribers. Refreshed on every Stats call.
	Watch WatchCounters `json:"watch"`
	// Reach reports the reachability index: resident sparse distance
	// tables, their bytes (entries × 5), BFS builds run and lookups
	// served from cache. All zero on a warm-booted read-only process —
	// its plans load their connectivity factors from the store's conn
	// companions, and it never walks.
	Reach ReachCounters `json:"reach"`
}

// Explorer is a fully indexed NCExplorer instance. Safe for concurrent
// queries, including queries concurrent with Ingest.
type Explorer struct {
	g      *kg.Graph
	meta   *kggen.Meta
	engine *core.Engine
	ccfg   corpus.Config
	// scale names the synthetic-world scale the Explorer was built at;
	// persisted in snapshot manifests so Open can rebuild the graph.
	scale string
	// watch is the standing-query registry; initWatch wires it to the
	// engine's ingest hook and the persistence layer.
	watch *watch.Registry
	// watchWindows holds, per windowed watchlist, the publication times
	// of matches seen so far — the state behind "≥N matches in 7 days"
	// thresholds. Touched only by the ingest hook (which runs under the
	// ingest lock, so no extra locking) and deliberately not persisted:
	// after a restart a window threshold re-arms from empty, which is
	// the documented at-most-once semantics of window arming.
	watchWindows map[string][]int64

	statsOnce sync.Once
	stats     Stats
}

// worldConfigs maps a scale name to the generator configurations New
// and Open share, with the seed derivations applied. The scale string
// is returned normalized ("" → "default").
func worldConfigs(scale string, seed uint64) (string, kggen.Config, corpus.Config, error) {
	var kcfg kggen.Config
	var ccfg corpus.Config
	switch scale {
	case "", "default":
		scale = "default"
		kcfg, ccfg = kggen.Default(), corpus.Default()
	case "tiny":
		kcfg, ccfg = kggen.Tiny(), corpus.Tiny()
	default:
		return "", kcfg, ccfg, fmt.Errorf("ncexplorer: unknown scale %q (want \"tiny\" or \"default\")", scale)
	}
	kcfg.Seed = seed
	ccfg.Seed = (seed ^ 0xC0) + 7
	return scale, kcfg, ccfg, nil
}

// New builds a synthetic world and indexes it. Expect a few seconds at
// the default scale.
func New(cfg Config) (*Explorer, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	scale, kcfg, ccfg, err := worldConfigs(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}

	g, meta, err := kggen.Generate(kcfg)
	if err != nil {
		return nil, err
	}
	c, err := corpus.Generate(g, meta, ccfg)
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(g, core.Options{
		Seed:        cfg.Seed,
		Samples:     cfg.Samples,
		Tau:         cfg.Tau,
		Beta:        cfg.Beta,
		MaxSegments: cfg.MaxSegments,
	})
	if cfg.ShardCount > 1 {
		if cfg.Shard < 0 || cfg.Shard >= cfg.ShardCount {
			return nil, newErrorf(CodeInvalidArgument,
				"ncexplorer: shard index %d out of range [0, %d)", cfg.Shard, cfg.ShardCount)
		}
		engine.IndexCorpusSharded(c, cfg.Shard, cfg.ShardCount)
	} else {
		engine.IndexCorpus(c)
	}
	x := &Explorer{g: g, meta: meta, engine: engine, ccfg: ccfg, scale: scale}
	x.initWatch(watch.Options{MaxWatchlists: cfg.MaxWatchlists, AlertBuffer: cfg.AlertBuffer})
	return x, nil
}

// NumArticles returns the current corpus size (seed world plus every
// ingested article).
func (x *Explorer) NumArticles() int { return x.engine.NumDocs() }

// Generation returns the index snapshot generation currently serving:
// 1 after New, +1 per ingested batch. Segment merges do not change it
// (they reorganise storage, not content).
func (x *Explorer) Generation() uint64 { return x.engine.Generation() }

// QueryEpoch tags the externally observable query-result state: it
// advances whenever previously returned results may differ from what
// the same query returns now — on every ingested batch and every
// ResetQueryCaches call. Response caches layered above the facade
// (e.g. the HTTP server's result cache) fold it into their keys so a
// swap strands stale entries instead of requiring a flush.
func (x *Explorer) QueryEpoch() uint64 { return x.engine.CacheEpoch() }

// Stats reports corpus and graph dimensions plus indexing cost. The
// graph is immutable after New, so that part of the snapshot is
// computed once and reused; the corpus size, generation, segment,
// ingest, and engine-cache numbers are live and refreshed per call.
func (x *Explorer) Stats() Stats {
	x.statsOnce.Do(func() {
		gs := x.g.Stats()
		is := x.engine.Stats()
		x.stats = Stats{
			Nodes:          gs.Nodes,
			Instances:      gs.Instances,
			Concepts:       gs.Concepts,
			InstanceEdges:  gs.InstanceEdges,
			BroaderEdges:   gs.BroaderEdges,
			TypeAssertions: gs.TypeAssertions,
			LinkNanos:      is.LinkNanos,
			ScoreNanos:     is.ScoreNanos,
		}
	})
	st := x.stats
	st.Articles = x.engine.NumDocs()
	st.Generation = x.engine.Generation()
	st.Segments = x.engine.SegmentSizes()
	st.Ingest = IngestCounters(x.engine.IngestCounters())
	st.Persist = PersistCounters(x.engine.PersistCounters())
	st.EngineCache = EngineCacheStats{Match: CacheCounters{Entries: x.engine.CacheStats().Match.Entries}}
	st.Watch = WatchCounters(x.watch.Counters())
	st.Reach = ReachCounters(x.engine.ReachStats())
	return st
}

// ResetQueryCaches advances QueryEpoch, so response caches layered
// above the facade stop serving retained bodies. It does not make the
// engine's own query path cold: queries read only the generation's
// plans and graph data, which it leaves in place, so no query's cost
// changes. Answers are unaffected, and queries in flight keep their
// pinned snapshot.
func (x *Explorer) ResetQueryCaches() { x.engine.ResetQueryCaches() }

// CanonicalConcepts returns a canonical form of a concept query:
// names are whitespace-trimmed, empties dropped, duplicates removed,
// and the rest sorted. Two queries naming the same concept set
// canonicalize identically, which is what makes cache keys
// (RollUpRequest.Key) and cached responses order-insensitive.
// Already-canonical input is returned as-is (the result may alias the
// input; the input is never mutated).
func CanonicalConcepts(concepts []string) []string {
	canonical := true
	for i, c := range concepts {
		if c == "" || c != strings.TrimSpace(c) || (i > 0 && concepts[i-1] >= c) {
			canonical = false
			break
		}
	}
	if canonical {
		return concepts
	}
	out := make([]string, 0, len(concepts))
	seen := make(map[string]bool, len(concepts))
	for _, c := range concepts {
		c = strings.TrimSpace(c)
		if c == "" || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// resolveConcepts maps concept names to node IDs, producing typed
// errors: an unknown name yields CodeUnknownConcept with
// nearest-concept suggestions in Details.
func (x *Explorer) resolveConcepts(names []string) (core.Query, error) {
	return resolveConceptsOn(x.g, names)
}

// resolveConceptsOn is resolveConcepts over an explicit graph — shared
// with QueryWorld, so a corpus-less router validates and resolves
// queries with the same typed errors a shard would produce.
func resolveConceptsOn(g *kg.Graph, names []string) (core.Query, error) {
	if len(names) == 0 {
		return nil, newErrorf(CodeInvalidArgument, "ncexplorer: empty concept query")
	}
	q := make(core.Query, 0, len(names))
	for _, name := range names {
		id, ok := g.Lookup(name)
		if !ok {
			return nil, unknownConceptErrorOn(g, name)
		}
		if !g.IsConcept(id) {
			return nil, newErrorf(CodeInvalidArgument,
				"ncexplorer: %q is an entity, not a concept (try ConceptsForEntity)", name)
		}
		q = append(q, id)
	}
	return q, nil
}

// RollUp retrieves the top-k articles matching every named concept
// (Definition 1 of the paper), with explanations. k must be positive;
// k <= 0 returns a CodeInvalidArgument error — one behavior shared by
// the CLI, the server, and the batch path (historically the facade
// silently returned no results for k <= 0).
//
// The concept list is treated as a set (Definition 1's Q): it is
// canonicalized — trimmed, deduplicated, sorted — before execution,
// so duplicates no longer double-count a concept's cdr contribution
// and Explanations arrive in canonical (sorted) concept order. The
// HTTP layer has always canonicalized before calling, so served
// results are unchanged.
func (x *Explorer) RollUp(concepts []string, k int) ([]Article, error) {
	res, err := x.RollUpQuery(context.Background(), RollUpRequest{Concepts: concepts, K: k, Explain: true})
	if err != nil {
		return nil, err
	}
	return res.Articles, nil
}

// DrillDown suggests the top-k subtopics refining the named concepts
// (Definition 2 of the paper), with score components. Like RollUp it
// rejects k <= 0 with CodeInvalidArgument and canonicalizes the
// concept list into a set before execution.
func (x *Explorer) DrillDown(concepts []string, k int) ([]SubtopicSuggestion, error) {
	res, err := x.DrillDownQuery(context.Background(), DrillDownRequest{Concepts: concepts, K: k, Explain: true})
	if err != nil {
		return nil, err
	}
	return res.Suggestions, nil
}

// ConceptsForEntity lists the concepts an entity can be rolled up to,
// most specific first — the first step of the paper's Fig. 1 workflow
// ("FTX" → "Bitcoin exchange").
func (x *Explorer) ConceptsForEntity(entity string) ([]string, error) {
	id, ok := x.g.Lookup(entity)
	if !ok {
		return nil, newErrorf(CodeUnknownEntity, "ncexplorer: unknown entity %q", entity)
	}
	if !x.g.IsInstance(id) {
		return nil, newErrorf(CodeInvalidArgument, "ncexplorer: %q is a concept, not an entity", entity)
	}
	var out []string
	for _, c := range x.engine.ConceptsForEntity(id) {
		out = append(out, x.g.Name(c))
	}
	return out, nil
}

// BroaderConcepts lists the next roll-up level above a concept.
func (x *Explorer) BroaderConcepts(concept string) ([]string, error) {
	id, ok := x.g.Lookup(concept)
	if !ok || !x.g.IsConcept(id) {
		return nil, x.unknownConceptError(concept)
	}
	var out []string
	for _, c := range x.engine.BroaderOptions(id) {
		out = append(out, x.g.Name(c))
	}
	return out, nil
}

// TopicKeywords amplifies a concept into a retrieval keyword list (the
// most connected entities of its extent).
func (x *Explorer) TopicKeywords(concept string, n int) ([]string, error) {
	id, ok := x.g.Lookup(concept)
	if !ok || !x.g.IsConcept(id) {
		return nil, x.unknownConceptError(concept)
	}
	return x.engine.TopicKeywords(id, n), nil
}

// unknownConceptError builds the typed unknown-concept error with its
// nearest-concept suggestions.
func (x *Explorer) unknownConceptError(concept string) *Error {
	return unknownConceptErrorOn(x.g, concept)
}

// unknownConceptErrorOn is unknownConceptError over an explicit graph.
func unknownConceptErrorOn(g *kg.Graph, concept string) *Error {
	e := newErrorf(CodeUnknownConcept, "ncexplorer: unknown concept %q", concept)
	e.Details = map[string]any{"concept": concept}
	if sugg := suggestConceptsOn(g, concept, maxSuggestions); len(sugg) > 0 {
		e.Details["suggestions"] = sugg
	}
	return e
}

// EvaluationTopics returns the six Table-I topic names with their
// query concepts, for callers reproducing the paper's evaluation.
func (x *Explorer) EvaluationTopics() [][2]string {
	var out [][2]string
	for _, t := range x.meta.Topics {
		out = append(out, [2]string{x.g.Name(t.Concept), x.g.Name(t.GroupConcept)})
	}
	return out
}
