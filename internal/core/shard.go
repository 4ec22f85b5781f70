package core

import (
	"context"
	"errors"
	"fmt"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/snapshot"
	"ncexplorer/internal/textindex"
)

// Sharded serving: one engine holds one shard of a federated corpus.
//
// The partitioning unit is the segment, and document IDs stay GLOBAL:
// shard s of n owns a subset of the corpus's segments, every document
// keeps the ID a monolithic build would have assigned, and the ID
// space seen by one shard simply has gaps where other shards' segments
// live. What a shard cannot compute locally is the corpus-global term
// statistics behind IDF — so peers exchange ShardStats (document
// count, token mass, per-term document frequencies), which fold into
// the shard's merged text view (textindex.RemoteStats). DF and N are
// plain sums over disjoint document sets, so a shard's every score is
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

// ShardStats is the term-statistics summary one shard publishes to its
// peers: everything another shard needs to make its local IDF
// arithmetic corpus-global.
type ShardStats struct {
	// Docs is the number of documents the summarised shard(s) hold.
	Docs int `json:"docs"`
	// TotalLen is their summed token length.
	TotalLen int64 `json:"total_len"`
	// Batches counts the batches ingested there after the seed build.
	Batches uint64 `json:"batches"`
	// DF maps each term to its document frequency among those documents.
	DF map[string]int `json:"df"`
}

// add folds another shard's statistics into s.
func (s *ShardStats) add(o ShardStats) {
	s.Docs += o.Docs
	s.TotalLen += o.TotalLen
	s.Batches += o.Batches
	if s.DF == nil {
		s.DF = make(map[string]int, len(o.DF))
	}
	for term, df := range o.DF {
		s.DF[term] += df
	}
}

// textStats renders the remote summary for the text index layer.
func (s *ShardStats) textStats() *textindex.RemoteStats {
	return &textindex.RemoteStats{Docs: s.Docs, TotalLen: s.TotalLen, DF: s.DF}
}

// segmentStats summarises one segment's term statistics, using the
// same per-part reads textindex.Merged sums — so remote stats built
// from these are bit-identical to holding the segments locally.
func segmentStats(seg *snapshot.Segment) ShardStats {
	out := ShardStats{
		Docs:     seg.Text.NumDocs(),
		TotalLen: seg.Text.TotalLen(),
		DF:       make(map[string]int),
	}
	for _, term := range seg.Text.Terms() {
		out.DF[term] += seg.Text.DF(term)
	}
	return out
}

// LocalStats summarises the documents this engine holds, for peers to
// fold in via SetRemoteStats. Batches excludes the seed build: the
// seed is generation 1 on every shard, not a batch.
func (e *Engine) LocalStats() ShardStats {
	st := e.state()
	out := ShardStats{DF: make(map[string]int)}
	if st == nil {
		return out
	}
	if lg := e.localGen.Load(); lg > 0 {
		out.Batches = lg - 1
	}
	for _, seg := range st.snap.Segments {
		ss := segmentStats(seg)
		out.Docs += ss.Docs
		out.TotalLen += ss.TotalLen
		for term, df := range ss.DF {
			out.DF[term] += df
		}
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
// The swap bumps the cache epoch (scores changed) and checkpoints, so
// a replica shipping this shard's store observes the generation
// advance even when no local segment changed. Unchanged stats are a
// no-op.
func (e *Engine) SetRemoteStats(rs ShardStats) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	cur := e.state()
	if cur == nil {
		return errNotIndexed
	}
	old := e.remote.Load()
	if old == nil {
		return errNotSharded
	}
	if old.Docs == rs.Docs && old.TotalLen == rs.TotalLen && old.Batches == rs.Batches {
		return nil
	}
	e.remote.Store(&rs)
	st, _ := e.buildState(e.localGen.Load()+rs.Batches, cur.snap.Segments, cur, nil)
	e.st.Store(st)
	e.epoch.Add(1)
	e.checkpointSyncLocked(st)
	return nil
}

// IndexCorpusSharded is IndexCorpus for shard `shard` of `count`: it
// runs the full pipeline over the corpus, keeps the contiguous slice
// [shard·n/count, (shard+1)·n/count) as this engine's seed segment,
// and folds the other slices' term statistics into the remote summary.
// Every slice is segmented exactly as its owning shard segments it, so
// the statistics exchanged here equal the ones peers would publish —
// no network round-trip is needed to boot a byte-identical shard from
// a shared corpus. May be called once per engine, like IndexCorpus.
func (e *Engine) IndexCorpusSharded(c *corpus.Corpus, shard, count int) IndexStats {
	if count < 1 || shard < 0 || shard >= count {
		panic(fmt.Sprintf("core: invalid shard %d of %d", shard, count))
	}
	if e.st.Load() != nil {
		panic("core: IndexCorpus called twice")
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.shardIndex, e.shardCount = shard, count
	articles := append([]corpus.Document(nil), c.Docs...)
	n := len(articles)
	var ownSeg *snapshot.Segment
	remote := ShardStats{DF: make(map[string]int)}
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
			remote.add(segmentStats(seg))
		}
	}
	e.remote.Store(&remote)
	st, scoreNanos := e.buildState(1, []*snapshot.Segment{ownSeg}, nil, nil)
	e.stats.ScoreNanos = scoreNanos
	e.localGen.Store(1)
	e.st.Store(st)
	e.epoch.Add(1)
	return e.stats
}
