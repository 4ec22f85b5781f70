package core

import (
	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/relevance"
	"ncexplorer/internal/shardmap"
)

// Query-path caching. Everything a query reads hangs off the pinned
// genState: the snapshot's segments (docs, entity postings, term
// index, knowledge graph) are immutable, and everything mutable at
// query time lives in sharded memo maps plus a pool of per-goroutine
// scorers, so concurrent queries never share unsynchronised state and
// never serialize behind a global lock.
//
// The maps split by lifetime:
//
//   - per generation (swapped with the snapshot, so an ingest
//     invalidates them wholesale without a flush):
//     cdrMemo memoises cdr(c, d) for NON-matching pairs only (delta
//     evaluation probes arbitrary keys); matching pairs are answered
//     straight from the generation's concept plans (plan.go), which
//     also carry the per-concept matching-document lists (Definition
//     1 semantics), precomputed at swap time rather than memoised on
//     demand;
//   - engine-wide (valid forever): connMemo holds the
//     context-relevance factor cdrc(c, d) — the random-walk part of
//     cdr, a pure function of graph + document — and the extent cache
//     holds concept extent closures (pure graph data). These are what
//     make a post-ingest snapshot rebuild cheap: only the cheap
//     ontology factor is recomputed; nothing is re-walked.
//
// Determinism is unaffected by the concurrency: on-demand cdrc
// samplers are seeded per (concept, doc) (see contextRel in
// engine.go), so whichever goroutine — and whichever generation —
// computes a value computes THE value.

// cdrShards/matchShards size the memo maps. cdr keys are dense (every
// query touches many (concept, doc) pairs) so they get more shards;
// matchShards sizes the engine-wide extent cache.
const (
	cdrShards   = 64
	matchShards = 16
)

// CacheStats reports the engine's query-cache effectiveness: the
// serving layer surfaces it through /statsz.
type CacheStats struct {
	// CDR is the (concept, document) relevance memo (current
	// generation). Matching pairs are served from the plans without
	// touching it, so its entries are on-demand non-matching probes.
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
		CDR:   st.cdrMemo.Stats(),
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

// getScorer takes a scorer from the state's pool. Scorers are not safe
// for concurrent use (walk scratch buffers), so each query goroutine
// borrows one for the duration of a computation and returns it with
// putScorer. Extent slices obtained from a pooled scorer stay valid
// after release: the scorer treats them as immutable shared data (see
// relevance.Scorer).
func (st *genState) getScorer() *relevance.Scorer {
	return st.scorers.Get().(*relevance.Scorer)
}

func (st *genState) putScorer(s *relevance.Scorer) { st.scorers.Put(s) }

// reseedConn pins every walked context factor back into the
// engine-wide connectivity memo — after a ResetQueryCaches this
// restores connMemo to exactly the state a fresh build of this
// generation would leave behind. Pairs whose ontology factor is zero
// were never walked and stay out of the connectivity memo. (Planned
// cdr values need no re-seeding: st.cdr reads them straight out of
// the plans, so the swap path never copies them into a map.)
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
