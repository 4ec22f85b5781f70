package core

import (
	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/shardmap"
)

// Query-path caching. Everything a query reads hangs off the pinned
// genState: the snapshot's segments (docs, entity postings, term
// index, knowledge graph) are immutable, and the generation's concept
// plans (plan.go) hold every matching (concept, document) pair with
// its cdr score and pivot — the one source of Definition-1 matches and
// scores for roll-ups, drill-downs and standing queries alike. Plans
// are derived at swap time, so a query never computes a score.
//
// What remains memoised is generation-independent and engine-wide
// (valid forever, never invalidated by an ingest): connMemo holds the
// context-relevance factor cdrc(c, d) — the random-walk part of cdr, a
// pure function of graph + document — and the extent cache holds
// concept extent closures (pure graph data). These are what make a
// post-ingest plan rebuild cheap: only the cheap ontology factor is
// replayed; nothing is re-walked. Both are sharded concurrent maps, so
// concurrent queries never serialize behind a global lock.
//
// Determinism is unaffected by the concurrency: cdrc samplers are
// seeded per (concept, doc) (see contextRel in engine.go), so whichever
// goroutine — and whichever generation — computes a value computes THE
// value.

// cdrShards/matchShards size the memo maps. Connectivity keys are
// dense (every build touches many (concept, doc) pairs) so they get
// more shards; matchShards sizes the engine-wide extent cache.
const (
	cdrShards   = 64
	matchShards = 16
)

// CacheStats reports the engine's query-cache effectiveness: the
// serving layer surfaces it through /statsz.
type CacheStats struct {
	// CDR is always zero: cdr values live in the generation's plans,
	// and no (concept, document) relevance memo exists any more. Kept
	// for readers that still decode the field.
	CDR shardmap.Stats `json:"cdr"`
	// Match reports the concept→matching-documents plans (current
	// generation). Plans are precomputed at swap time, so Entries is
	// the number of concepts with a non-empty plan and the hit/miss
	// counters stay zero — the query path never faults one in.
	Match shardmap.Stats `json:"match"`
	// Conn is the engine-wide (generation-independent) connectivity
	// memo behind cdr's expensive factor.
	Conn shardmap.Stats `json:"conn"`
}

// CacheStats returns a point-in-time snapshot of the query caches.
func (e *Engine) CacheStats() CacheStats {
	st := e.state()
	if st == nil {
		return CacheStats{}
	}
	return CacheStats{
		Match: shardmap.Stats{Entries: int64(st.planned)},
		Conn:  e.connMemo.Stats(),
	}
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
	ext, _ := e.extents.Extent(e.g, c, 0)
	return ext
}

// reseedConn pins every walked context factor back into the
// engine-wide connectivity memo — after a ResetQueryCaches this
// restores connMemo to exactly the state a fresh build of this
// generation would leave behind. Pairs whose ontology factor is zero
// were never walked and stay out of the connectivity memo.
func (st *genState) reseedConn() {
	for c := range st.plans {
		p := &st.plans[c]
		for i, d := range p.docs {
			if p.ont[i] > 0 {
				st.e.connMemo.Store(cdrKey(kg.NodeID(c), d), p.cdrc[i])
			}
		}
	}
}

func hashCDRKey(k uint64) uint64 { return shardmap.Mix64(k) }
