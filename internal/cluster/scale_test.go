package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sort"
	"testing"

	"ncexplorer"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/server"
)

// TestRouterDrillDownMatchesMonolithicAtScale runs the router's
// drill-down where the tiny world cannot reach, on the shape of the
// benchmark's router_scatter fixture: the default world, two shard
// leaders grown by a backfill (each shard takes its share as one run of
// consecutive batches, statistics exchanged after each run), and a
// monolithic server that ingested the same batches. The backfill is
// 8 × 64 articles rather than 16 × 256, to keep the test near 15 s
// under -race. For the broadest concepts — the ones whose matched
// documents drop candidates under the per-document cap — the router's
// explain bodies must equal the monolith's byte for byte. With the
// shard side unioning diversity over all of D(Q), 17 of the 40 differed.
func TestRouterDrillDownMatchesMonolithicAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale world")
	}
	const (
		nShards    = 2
		batches    = 8
		batchSize  = 64
		broadCount = 40
	)
	ctx := context.Background()
	mono, err := ncexplorer.New(ncexplorer.Config{Scale: "default", MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	monoTS := httptest.NewServer(server.New(mono, server.Options{}).Handler())
	t.Cleanup(monoTS.Close)

	leaders := make([]*ncexplorer.Explorer, nShards)
	urls := make([][]string, nShards)
	for i := range leaders {
		x, err := ncexplorer.New(ncexplorer.Config{Scale: "default", Shard: i, ShardCount: nShards, MaxSegments: 4})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(x, server.Options{EnableCluster: true}).Handler())
		t.Cleanup(ts.Close)
		leaders[i], urls[i] = x, []string{ts.URL}
	}
	world, err := ncexplorer.NewQueryWorld("default", 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := &Router{World: world, Shards: urls, Logf: t.Logf}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if err := rt.SyncStats(ctx); err != nil {
		t.Fatal(err)
	}

	per := batches / nShards
	for i := 0; i < batches; i++ {
		batch, err := mono.SampleArticles(9700+uint64(i), batchSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := leaders[i/per].Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mono.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if (i+1)%per == 0 {
			if err := rt.SyncStats(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	diffs := 0
	for _, c := range broadestConcepts(t, mono, broadCount) {
		req := queryReq{Concepts: []string{c}, K: 10, Explain: true}
		wantStatus, want := postJSON(t, monoTS.URL, "/v2/query/drilldown", req)
		gotStatus, got := postJSON(t, rts.URL, "/v2/query/drilldown", req)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			diffs++
			t.Errorf("drill-down %q diverges:\n got  (%d): %s\n want (%d): %s", c, gotStatus, got, wantStatus, want)
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of the %d broadest concepts: router drill-down differs from the monolith", diffs, broadCount)
	}
}

// broadestConcepts names the n concepts matching the most articles
// (name ascending on ties).
func broadestConcepts(t *testing.T, x *ncexplorer.Explorer, n int) []string {
	t.Helper()
	type count struct {
		name  string
		total int
	}
	var counts []count
	x.Graph().Concepts(func(c kg.NodeID) bool {
		name := x.Graph().Name(c)
		res, err := x.RollUpQuery(context.Background(), ncexplorer.RollUpRequest{Concepts: []string{name}, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, count{name, res.Total})
		return true
	})
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].total != counts[j].total {
			return counts[i].total > counts[j].total
		}
		return counts[i].name < counts[j].name
	})
	names := make([]string, 0, n)
	for _, c := range counts[:min(n, len(counts))] {
		names = append(names, c.name)
	}
	return names
}
