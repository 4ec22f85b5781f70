package core

import (
	"context"
	"errors"
	"fmt"
	"maps"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/snapshot"
)

// Sharded serving: one engine holds one shard of a federated corpus.
//
// The partitioning unit is the segment, and document IDs stay GLOBAL:
// shard s of n owns a subset of the corpus's segments, every document
// keeps the ID a monolithic build would have assigned, and the ID
// space seen by one shard simply has gaps where other shards' segments
// live. What a shard cannot compute locally is the corpus-global
// entity statistics behind IDF — so peers exchange ShardStats (document
// count, per-entity document frequencies), which fold into the shard's
// snapshot (snapshot.NewSharded). DF and N are plain sums over disjoint
// document sets, so a shard's every score is
// bit-identical to the monolithic engine's; a scatter-gather router
// can therefore merge per-shard answers exactly (see the facade's
// shard merge helpers and internal/cluster).
//
// Generations stay globally numbered too: the published generation is
// localGen (1 for the seed build, +1 per locally ingested batch) plus
// the remote batch count, so after B total batches every shard — and
// the monolithic reference — reports generation 1+B. SetRemoteStats
// republishes the state at the new generation whenever peers advance.

// errNotSharded marks remote-stats calls on a monolithic engine.
var errNotSharded = errors.New("core: SetRemoteStats on a non-sharded engine")

// ShardStats is the entity-statistics summary one shard publishes to
// its peers: everything another shard needs to make its local IDF
// arithmetic corpus-global.
type ShardStats struct {
	// Docs is the number of documents the summarised shard(s) hold.
	Docs int `json:"docs"`
	// Batches counts the batches ingested there after the seed build.
	Batches uint64 `json:"batches"`
	// DF maps each entity to its document frequency among those
	// documents (entities in none are absent).
	DF map[kg.NodeID]int `json:"df"`
}

// addSegment folds one segment's documents into s: its posting-list
// lengths are its entity document frequencies, the same counts
// snapshot.EntityDF sums — so remote stats built this way are
// bit-identical to holding the segments locally.
func (s *ShardStats) addSegment(seg *snapshot.Segment) {
	s.Docs += seg.Len()
	for v, docs := range seg.EntDocs {
		s.DF[v] += len(docs)
	}
}

// validate checks remote statistics against the graph they will index
// into: a non-negative document count, no more batches than documents
// (every counted batch adds at least one; an empty batch counts none),
// and a document frequency in [1, Docs] for entity keys that are nodes
// of the graph. It is the one check every way in (the HTTP exchange, a
// shard manifest) goes through.
func (s *ShardStats) validate(numNodes int) error {
	if s.Docs < 0 {
		return fmt.Errorf("remote statistics: negative document count %d", s.Docs)
	}
	if s.Batches > uint64(s.Docs) {
		return fmt.Errorf("remote statistics: %d batches for %d documents", s.Batches, s.Docs)
	}
	for v, df := range s.DF {
		if v < 0 || int(v) >= numNodes {
			return fmt.Errorf("remote statistics: entity %d outside graph (%d nodes)", v, numNodes)
		}
		if df < 1 || df > s.Docs {
			return fmt.Errorf("remote statistics: entity %d document frequency %d outside [1, %d]", v, df, s.Docs)
		}
	}
	return nil
}

// LocalStats summarises the documents this engine holds, for peers to
// fold in via SetRemoteStats. Batches excludes the seed build: the
// seed is generation 1 on every shard, not a batch.
func (e *Engine) LocalStats() ShardStats {
	st := e.state()
	out := ShardStats{DF: make(map[kg.NodeID]int)}
	if st == nil {
		return out
	}
	if lg := e.localGen.Load(); lg > 0 {
		out.Batches = lg - 1
	}
	for _, seg := range st.snap.Segments {
		out.addSegment(seg)
	}
	return out
}

// ShardInfo reports the engine's cluster position: its shard index,
// the shard count, and whether it is sharded at all.
func (e *Engine) ShardInfo() (index, count int, sharded bool) {
	return e.shardIndex, e.shardCount, e.remote.Load() != nil
}

// RemoteStatsSnapshot returns the remote statistics currently folded
// in (zero value for a monolithic engine).
func (e *Engine) RemoteStatsSnapshot() ShardStats {
	if rs := e.remote.Load(); rs != nil {
		return *rs
	}
	return ShardStats{}
}

// SetRemoteStats replaces the peers' folded-in term statistics and
// republishes the snapshot at the new global generation. The segments
// are untouched, so the rebuild reuses every plan skeleton and every
// stored connectivity factor — only the IDF-dependent arrays replay.
// The swap bumps the cache epoch (scores changed) and is checkpointed
// before SetRemoteStats returns, so a replica shipping this shard's
// store observes the generation advance even when no local segment
// changed. The checkpoint goes through the group-commit writer like an
// ingest's, and the wait for it runs after the ingest lock is
// released. Invalid stats (see ShardStats.validate) are refused. So
// are stats at a lower batch count than the current ones, and stats at
// the current batch count that differ from the current ones: peers'
// counts only grow, so a lower count would move the generation
// backwards, a real summary at an unchanged batch count is the same
// summary, and any other body names no state (a sum of torn peer
// snapshots, or a forgery) — rescoring on it would change answers
// while the generation stays put. The same stats again are a no-op.
func (e *Engine) SetRemoteStats(rs ShardStats) error {
	seq, err := e.foldRemoteStats(rs)
	if err != nil {
		return err
	}
	e.WaitPersisted(seq)
	return nil
}

// foldRemoteStats is SetRemoteStats' commit under ingestMu: it
// validates rs, publishes the rescored state and returns the persist
// sequence of its checkpoint (0 for a no-op).
func (e *Engine) foldRemoteStats(rs ShardStats) (uint64, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	cur := e.state()
	if cur == nil {
		return 0, errNotIndexed
	}
	old := e.remote.Load()
	if old == nil {
		return 0, errNotSharded
	}
	if err := rs.validate(e.g.NumNodes()); err != nil {
		return 0, err
	}
	if rs.Batches < old.Batches {
		return 0, fmt.Errorf("remote statistics: %d batches after %d were folded in", rs.Batches, old.Batches)
	}
	if old.Batches == rs.Batches {
		if old.Docs == rs.Docs && maps.Equal(old.DF, rs.DF) {
			return 0, nil
		}
		return 0, fmt.Errorf("remote statistics: %d batches already folded in with other counts", rs.Batches)
	}
	e.remote.Store(&rs)
	st, _ := e.buildState(e.localGen.Load()+rs.Batches, cur.snap.Segments, cur, nil)
	e.st.Store(st)
	e.epoch.Add(1)
	return e.enqueueCheckpointLocked(st), nil
}

// IndexCorpusSharded is IndexCorpus for shard `shard` of `count`: it
// runs the full pipeline over the corpus, keeps the contiguous slice
// [shard·n/count, (shard+1)·n/count) as this engine's seed segment,
// and folds the other slices' entity statistics into the remote summary.
// Every slice is segmented exactly as its owning shard segments it, so
// the statistics exchanged here equal the ones peers would publish —
// no network round-trip is needed to boot a byte-identical shard from
// a shared corpus. With count == 1 the engine is monolithic: it keeps
// no shard position and no remote summary. May be called once per
// engine, like IndexCorpus.
func (e *Engine) IndexCorpusSharded(c *corpus.Corpus, shard, count int) IndexStats {
	if count < 1 || shard < 0 || shard >= count {
		panic(fmt.Sprintf("core: invalid shard %d of %d", shard, count))
	}
	if e.st.Load() != nil {
		panic("core: IndexCorpus called twice")
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	// Private copy of the display articles: the engine owns them from
	// here on (IDs are rewritten, and ingested articles extend them).
	articles := append([]corpus.Document(nil), c.Docs...)
	n := len(articles)
	var ownSeg *snapshot.Segment
	remote := ShardStats{DF: make(map[kg.NodeID]int)}
	for s := 0; s < count; s++ {
		lo, hi := s*n/count, (s+1)*n/count
		seg, perSource, linkNanos, err := e.buildSegment(context.Background(), articles[lo:hi], int32(lo))
		if err != nil {
			panic("core: segment build failed without a cancellable context: " + err.Error())
		}
		if s == shard {
			ownSeg = seg
			e.stats = IndexStats{Docs: hi - lo, PerSource: perSource, LinkNanos: linkNanos}
		} else {
			remote.addSegment(seg)
		}
	}
	if count > 1 {
		e.shardIndex, e.shardCount = shard, count
		e.remote.Store(&remote)
	}
	st, scoreNanos := e.buildState(1, []*snapshot.Segment{ownSeg}, nil, nil)
	e.stats.ScoreNanos = scoreNanos
	e.localGen.Store(1)
	e.st.Store(st)
	e.epoch.Add(1)
	return e.stats
}
