package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"ncexplorer/internal/corpus"
)

// syncShards publishes every shard's local statistics to its peers —
// the orchestration step a cluster performs over HTTP after each batch.
func syncShards(t testing.TB, shards []*Engine) {
	t.Helper()
	for i, e := range shards {
		var remote ShardStats
		for j, o := range shards {
			if j != i {
				remote.add(o.LocalStats())
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
