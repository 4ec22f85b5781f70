package core

import (
	"encoding/binary"
	"slices"
	"sync/atomic"

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
//
// One query-path memo hangs off the genState too: the drill-down
// windows (windowMemo). A window is a pure function of the generation
// and its key, so the memo is correct by construction: every new
// generation (ingest commit, SetRemoteStats, open) starts with an empty
// one, a merge at the same generation shares it like the plans, and
// ResetQueryCaches empties it.

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
	// DrillDownWindows reports the drill-down window memo: pages ranked
	// from a memoised window (Hits) or from a freshly computed one
	// (Misses) since the engine was built, and the windows the current
	// generation holds (Entries).
	DrillDownWindows MemoCounters `json:"drilldown_windows"`
}

// CacheStats returns a point-in-time snapshot of the query caches.
func (e *Engine) CacheStats() CacheStats {
	st := e.state()
	if st == nil {
		return CacheStats{}
	}
	return CacheStats{
		Match: MemoCounters{Entries: int64(st.planned)},
		DrillDownWindows: MemoCounters{
			Hits:    e.windowHits.Load(),
			Misses:  e.windowMisses.Load(),
			Entries: int64(st.windows.len()),
		},
	}
}

// maxWindows bounds one generation's window memo. A window holds at
// most max(128, K) entries of 24 bytes, about 3 KB at K ≤ 128, so a
// full memo stays near 3 MB.
const (
	windowBits = 10
	maxWindows = 1 << windowBits
)

// windowKey is what a drill-down window depends on: the query's
// concept IDs sorted (four little-endian bytes each), the time range,
// NoSpecificity (it orders the shortlist) and the shortlist size.
type windowKey struct {
	q          string
	timed      bool
	tMin, tMax int64
	noSpec     bool
	size       int
}

func newWindowKey(q Query, opts DrillDownOptions) windowKey {
	if !slices.IsSorted(q) {
		q = slices.Clone(q)
		slices.Sort(q)
	}
	var buf [32]byte
	b := buf[:0]
	for _, c := range q {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	k := windowKey{q: string(b), noSpec: opts.NoSpecificity, size: max(128, opts.K)}
	if tr := opts.Time; tr != nil {
		k.timed, k.tMin, k.tMax = true, tr.Min, tr.Max
	}
	return k
}

// slot picks k's slot in a windowTable: FNV-1a over the key's fields,
// then a Fibonacci multiply whose top bits index the table.
func (k windowKey) slot() int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.q); i++ {
		h = (h ^ uint64(k.q[i])) * prime
	}
	for _, v := range [...]uint64{uint64(k.tMin), uint64(k.tMax), uint64(k.size)} {
		h = (h ^ v) * prime
	}
	if k.timed {
		h = (h ^ 1) * prime
	}
	if k.noSpec {
		h = (h ^ 2) * prime
	}
	return int((h * 0x9E3779B97F4A7C15) >> (64 - windowBits))
}

// windowTable is a direct-mapped table of windows: each slot holds the
// last window put under a key that maps to it.
type windowTable [maxWindows]atomic.Pointer[windowSlot]

type windowSlot struct {
	key windowKey
	w   ddWindow
}

// windowMemo is one generation's drill-down windows, at most
// maxWindows of them. Lookups and stores are single atomic loads and
// stores into a windowTable, so concurrent pages never wait on each
// other: a memo behind a lock parked its callers often enough to halve
// cold drill-down throughput on two cores. A put replaces whatever
// window its slot held. Concurrent misses on one key may both compute;
// the windows are equal, so either may stay.
type windowMemo struct {
	tab atomic.Pointer[windowTable]
}

func (wm *windowMemo) get(k windowKey) (ddWindow, bool) {
	tab := wm.tab.Load()
	if tab == nil {
		return nil, false
	}
	if s := tab[k.slot()].Load(); s != nil && s.key == k {
		return s.w, true
	}
	return nil, false
}

func (wm *windowMemo) put(k windowKey, w ddWindow) {
	tab := wm.tab.Load()
	for tab == nil {
		wm.tab.CompareAndSwap(nil, new(windowTable))
		tab = wm.tab.Load()
	}
	tab[k.slot()].Store(&windowSlot{key: k, w: w})
}

// len counts the windows held.
func (wm *windowMemo) len() int {
	tab := wm.tab.Load()
	if tab == nil {
		return 0
	}
	n := 0
	for i := range tab {
		if tab[i].Load() != nil {
			n++
		}
	}
	return n
}

// reset drops every window.
func (wm *windowMemo) reset() { wm.tab.Store(nil) }

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
