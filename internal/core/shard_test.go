package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/segio"
)

// syncShards publishes every shard's local statistics to its peers —
// the orchestration step a cluster performs over HTTP after each batch.
func syncShards(t testing.TB, shards []*Engine) {
	t.Helper()
	for i, e := range shards {
		remote := ShardStats{DF: map[kg.NodeID]int{}}
		for j, o := range shards {
			if j == i {
				continue
			}
			ls := o.LocalStats()
			remote.Docs += ls.Docs
			remote.Batches += ls.Batches
			for v, df := range ls.DF {
				remote.DF[v] += df
			}
		}
		if err := e.SetRemoteStats(remote); err != nil {
			t.Fatal(err)
		}
	}
}

// mergeShardRollUps is the router's roll-up merge in miniature: the
// union of per-shard top-(k+offset) lists re-ranked by (score desc, doc
// asc) and sliced to [offset:][:k] — exact because shards partition the
// corpus and each shard's top-(k+offset) contains every global
// top-(k+offset) document it owns.
func mergeShardRollUps(lists [][]DocResult, k, offset int) []DocResult {
	var union []DocResult
	for _, l := range lists {
		union = append(union, l...)
	}
	sort.Slice(union, func(i, j int) bool {
		if union[i].Score != union[j].Score {
			return union[i].Score > union[j].Score
		}
		return union[i].Doc < union[j].Doc
	})
	if offset >= len(union) {
		return nil
	}
	union = union[offset:]
	if len(union) > k {
		union = union[:k]
	}
	return union
}

// TestShardedMatchesMonolithic is the acceptance contract of sharded
// serving at the engine level: two shards booted with
// IndexCorpusSharded and grown by routed batches (with statistics
// exchanged after each) must agree with a monolithic engine over the
// union — same generations, byte-identical per-document concept
// postings for every owned document, and per-shard roll-ups whose
// exact merge reproduces the monolithic page. The schedule routes
// consecutive batches to one shard (exercising contiguous shard-side
// merges) and alternates too (exercising the merge contiguity guard).
func TestShardedMatchesMonolithic(t *testing.T) {
	g, meta, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20, MaxSegments: 2}
	const nShards = 2
	shards := make([]*Engine, nShards)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, nShards)
	}
	syncShards(t, shards)
	mono := NewEngine(g, opts)
	mono.IndexCorpus(c)

	check := func(stage string) {
		t.Helper()
		for s, e := range shards {
			if e.Generation() != mono.Generation() {
				t.Fatalf("%s: shard %d generation %d, mono %d", stage, s, e.Generation(), mono.Generation())
			}
			for _, d := range localDocs(e.state().snap) {
				got, want := e.DocConcepts(corpus.DocID(d)), mono.DocConcepts(corpus.DocID(d))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: shard %d doc %d postings diverge:\n shard: %+v\n mono:  %+v",
						stage, s, d, got, want)
				}
			}
		}
		for _, topic := range meta.Topics {
			for _, q := range []Query{{topic.Concept}, {topic.Concept, topic.GroupConcept}} {
				const k = 8
				lists := make([][]DocResult, len(shards))
				for s, e := range shards {
					lists[s] = e.RollUp(q, k)
				}
				got, want := mergeShardRollUps(lists, k, 0), mono.RollUp(q, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: merged roll-up for %v diverges:\n merged: %+v\n mono:   %+v",
						stage, q, got, want)
				}
			}
		}
	}
	check("seed")

	targets := []int{0, 0, 1, 1, 0}
	for i, target := range targets {
		batch := ingestBatch(t, 9000+uint64(i), 5+i)
		if _, err := shards[target].Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mono.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		syncShards(t, shards)
		check("batch")
	}
	for _, e := range shards {
		e.WaitMerges()
	}
	mono.WaitMerges()
	check("after merges")

	// Shard 0 received contiguous consecutive batches, so its merge path
	// must have fired; total documents must tile the global ID space.
	totalDocs := 0
	for _, e := range shards {
		totalDocs += e.NumDocs()
	}
	if totalDocs != mono.NumDocs() {
		t.Fatalf("shards hold %d docs, mono %d", totalDocs, mono.NumDocs())
	}
}

// TestShardPersistRoundTrip: a shard saved and reopened (the replica
// warm-open path) recovers its cluster position, remote statistics,
// and local generation, answering byte-identically without any peer.
func TestShardPersistRoundTrip(t *testing.T) {
	g, meta, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20}
	shards := make([]*Engine, 2)
	for s := range shards {
		shards[s] = NewEngine(g, opts)
		shards[s].IndexCorpusSharded(c, s, 2)
	}
	syncShards(t, shards)
	if _, err := shards[1].Ingest(context.Background(), ingestBatch(t, 7100, 6)); err != nil {
		t.Fatal(err)
	}
	syncShards(t, shards)

	saved := shards[0]
	dir := t.TempDir()
	if err := saved.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	loaded := NewEngine(g, opts)
	if err := loaded.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if loaded.Generation() != saved.Generation() {
		t.Fatalf("generation %d, want %d", loaded.Generation(), saved.Generation())
	}
	idx, count, sharded := loaded.ShardInfo()
	if !sharded || idx != 0 || count != 2 {
		t.Fatalf("ShardInfo = (%d, %d, %v), want (0, 2, true)", idx, count, sharded)
	}
	if got, want := loaded.RemoteStatsSnapshot(), saved.RemoteStatsSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("remote stats diverge: %+v vs %+v", got, want)
	}
	for _, d := range localDocs(saved.state().snap) {
		if !reflect.DeepEqual(loaded.DocConcepts(corpus.DocID(d)), saved.DocConcepts(corpus.DocID(d))) {
			t.Fatalf("doc %d postings diverge after reopen", d)
		}
	}
	for _, topic := range meta.Topics {
		q := Query{topic.Concept}
		if !reflect.DeepEqual(loaded.RollUp(q, 8), saved.RollUp(q, 8)) {
			t.Fatalf("roll-up for %v diverges after reopen", q)
		}
	}
	// A reopened shard keeps ingesting with globally numbered IDs and
	// generations.
	if _, err := loaded.Ingest(context.Background(), ingestBatch(t, 7200, 3)); err != nil {
		t.Fatal(err)
	}
	if loaded.Generation() != saved.Generation()+1 {
		t.Fatalf("post-reopen ingest generation %d, want %d", loaded.Generation(), saved.Generation()+1)
	}
}

// TestSetRemoteStatsContract pins the API edges: monolithic engines
// refuse remote stats, unchanged stats are a no-op swap, and changed
// stats bump the cache epoch.
func TestSetRemoteStatsContract(t *testing.T) {
	g, _, c, _ := world(t)
	mono := NewEngine(g, Options{Seed: 11, Samples: 20})
	mono.IndexCorpus(c)
	if err := mono.SetRemoteStats(ShardStats{Docs: 1}); err == nil {
		t.Fatal("monolithic engine accepted remote stats")
	}

	sh := NewEngine(g, Options{Seed: 11, Samples: 20})
	sh.IndexCorpusSharded(c, 0, 2)
	cur := sh.RemoteStatsSnapshot()
	epoch := sh.CacheEpoch()
	if err := sh.SetRemoteStats(cur); err != nil {
		t.Fatal(err)
	}
	if sh.CacheEpoch() != epoch {
		t.Fatal("unchanged remote stats must not swap state")
	}
	cur.Docs += 5
	cur.Batches++
	if err := sh.SetRemoteStats(cur); err != nil {
		t.Fatal(err)
	}
	if sh.CacheEpoch() == epoch {
		t.Fatal("changed remote stats must bump the cache epoch")
	}
	if sh.Generation() != 2 {
		t.Fatalf("generation = %d, want 2 after one remote batch", sh.Generation())
	}
}

// invalidRemoteStats derives, from a shard's valid remote statistics,
// one variant per rule ShardStats.validate enforces.
func invalidRemoteStats(cur ShardStats, numNodes int) map[string]ShardStats {
	var some kg.NodeID
	for v := range cur.DF {
		some = v
		break
	}
	with := func(mutate func(*ShardStats)) ShardStats {
		rs := cur
		rs.DF = make(map[kg.NodeID]int, len(cur.DF)+1)
		for v, df := range cur.DF {
			rs.DF[v] = df
		}
		rs.Batches++ // never a no-op swap
		mutate(&rs)
		return rs
	}
	return map[string]ShardStats{
		"negative docs":         with(func(rs *ShardStats) { rs.Docs = -1 }),
		"key past the graph":    with(func(rs *ShardStats) { rs.DF[999999999] = 1 }),
		"key at the node count": with(func(rs *ShardStats) { rs.DF[kg.NodeID(numNodes)] = 1 }),
		"negative key":          with(func(rs *ShardStats) { rs.DF[-1] = 1 }),
		"negative df":           with(func(rs *ShardStats) { rs.DF[some] = -100000 }),
		"zero df":               with(func(rs *ShardStats) { rs.DF[some] = 0 }),
		"df above docs":         with(func(rs *ShardStats) { rs.DF[some] = rs.Docs + 1 }),
		"batches above docs":    with(func(rs *ShardStats) { rs.Batches = uint64(rs.Docs) + 1 }),
	}
}

// TestSetRemoteStatsRejectsInvalid: statistics that would index past
// the graph or skew IDF (a DF outside [1, docs]) are refused, and so
// are statistics at the current batch count that differ from the
// current ones (they name no peer state). The refused call changes
// nothing — no swap, no generation, same answers.
func TestSetRemoteStatsRejectsInvalid(t *testing.T) {
	g, meta, c, _ := world(t)
	sh := NewEngine(g, Options{Seed: 11, Samples: 20})
	sh.IndexCorpusSharded(c, 0, 2)
	q := Query{meta.Topics[0].Concept}
	want := sh.RollUp(q, 8)
	wantDrill, err := sh.DrillDownPage(context.Background(), q, DrillDownOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	epoch, gen := sh.CacheEpoch(), sh.Generation()
	cases := invalidRemoteStats(sh.RemoteStatsSnapshot(), g.NumNodes())
	// Same batch count, other statistics: built without invalidRemoteStats'
	// helper, which bumps the batch count.
	sameDocs := sh.RemoteStatsSnapshot()
	sameDocs.Docs++
	cases["same batches, other docs"] = sameDocs
	sameDF := sh.RemoteStatsSnapshot()
	sameDF.DF = make(map[kg.NodeID]int, len(sameDF.DF))
	for v, df := range sh.RemoteStatsSnapshot().DF {
		sameDF.DF[v] = df
	}
	for v := range sameDF.DF {
		delete(sameDF.DF, v)
		break
	}
	cases["same batches, other df"] = sameDF
	for name, rs := range cases {
		if err := sh.SetRemoteStats(rs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if sh.CacheEpoch() != epoch || sh.Generation() != gen {
		t.Fatal("a refused SetRemoteStats swapped state")
	}
	if got := sh.RollUp(q, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("roll-up moved after refused remote stats:\n got %v\nwant %v", got, want)
	}
	gotDrill, err := sh.DrillDownPage(context.Background(), q, DrillDownOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDrill, wantDrill) {
		t.Fatalf("drill-down moved after refused remote stats:\n got %+v\nwant %+v", gotDrill, wantDrill)
	}
}

// TestOpenRejectsInvalidShardStats: a shard manifest whose remote
// statistics fail the same validation, or whose generation does not
// exceed its remote batches, is typed corruption at open, and the
// refused engine can still open the intact store.
func TestOpenRejectsInvalidShardStats(t *testing.T) {
	g, _, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20}
	sh := NewEngine(g, opts)
	sh.IndexCorpusSharded(c, 0, 2)
	dir := t.TempDir()
	if err := sh.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	intact, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := make(map[string]segio.Manifest)
	for name, rs := range invalidRemoteStats(sh.RemoteStatsSnapshot(), g.NumNodes()) {
		m := *intact
		m.Generation += rs.Batches // the local generation stays valid
		m.Shard = &segio.ShardMeta{Index: 0, Count: 2, RemoteDocs: rs.Docs, RemoteDF: rs.DF, RemoteBatches: rs.Batches}
		cases[name] = m
	}
	// Valid statistics, but a generation the remote batches cover: no
	// local generation would be left.
	m := *intact
	shard := *intact.Shard
	shard.RemoteBatches = m.Generation
	m.Shard = &shard
	cases["generation within remote batches"] = m
	for name, m := range cases {
		if err := segio.WriteManifest(dir, &m); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, opts)
		if err := e.OpenSnapshot(dir, nil); !errors.Is(err, segio.ErrCorrupt) {
			t.Errorf("%s: open err = %v, want ErrCorrupt", name, err)
		}
		if err := segio.WriteManifest(dir, intact); err != nil {
			t.Fatal(err)
		}
		if err := e.OpenSnapshot(dir, nil); err != nil {
			t.Fatalf("%s: reopening the intact store after a refused open: %v", name, err)
		}
	}
}
