package core

import (
	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
)

// Query-path caching. Everything a query reads hangs off the pinned
// genState: the snapshot's segments (docs, entity postings, term
// index, knowledge graph) are immutable, and the generation's concept
// plans (plan.go) hold every matching (concept, document) pair with
// its cdr score, pivot and connectivity factor cdrc — the one source
// of Definition-1 matches and scores for roll-ups, drill-downs and
// standing queries alike. Plans are derived at swap time, so a query
// never computes a score.
//
// The plan rows are also the one store of cdrc, the random-walk part
// of cdr: a rebuild aliases the previous generation's cdrc arrays, and
// a merge or reopen carries or reloads them, so nothing is re-walked.
// What remains memoised engine-wide is the extent cache (pure graph
// data, valid forever): a dense lock-free table, so concurrent queries
// never serialize behind a global lock.

// MemoCounters is one memo's effectiveness counters.
type MemoCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
}

// CacheStats reports the engine's query-cache effectiveness: the
// serving layer surfaces it through /statsz.
type CacheStats struct {
	// CDR and Conn are always zero: cdr and cdrc values live in the
	// generation's plans, and no relevance or connectivity memo exists.
	// They remain only because bench/ncload/trace.go still reads their
	// Hits and Misses for core.memo_hit_ratio; the bench-only follow-up
	// on ROADMAP deletes that read, and then both fields.
	CDR  MemoCounters `json:"cdr"`
	Conn MemoCounters `json:"conn"`
	// Match reports the concept→matching-documents plans (current
	// generation). Plans are precomputed at swap time, so Entries is
	// the number of concepts with a non-empty plan and the hit/miss
	// counters stay zero — the query path never faults one in.
	Match MemoCounters `json:"match"`
}

// CacheStats returns a point-in-time snapshot of the query caches.
func (e *Engine) CacheStats() CacheStats {
	st := e.state()
	if st == nil {
		return CacheStats{}
	}
	return CacheStats{Match: MemoCounters{Entries: int64(st.planned)}}
}

// ReachStats reports the reachability index behind guided walks:
// resident tables, their bytes, BFS builds and cache hits. Zero when
// the engine scores exactly (no index).
func (e *Engine) ReachStats() reach.Stats {
	if e.reachIx == nil {
		return reach.Stats{}
	}
	return e.reachIx.Stats()
}

// extent returns concept c's matching extent — the capped extent
// closure at the scorers' default cap — from the engine-wide extent
// cache. The slice is immutable and shared.
func (e *Engine) extent(c kg.NodeID) []kg.NodeID {
	ext, _ := e.extents.Extent(c)
	return ext
}
