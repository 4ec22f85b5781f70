package cluster

// In-process cluster harness: real HTTP servers (httptest) around real
// shard explorers, a real replica catch-up loop, and the router in
// front — versus a monolithic server over the union corpus. The
// equivalence test is the tentpole contract: every public query body
// the router serves must be byte-identical to the monolithic answer,
// at every generation of a randomized ingest-and-merge schedule.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ncexplorer"
	"ncexplorer/internal/server"
)

// shardNode is one serving process stand-in: explorer (nil for a
// replica before catch-up), server, and its HTTP front.
type shardNode struct {
	x   *ncexplorer.Explorer
	srv *server.Server
	ts  *httptest.Server
}

type testCluster struct {
	t        testing.TB
	ctx      context.Context
	monoX    *ncexplorer.Explorer
	mono     *httptest.Server
	leaders  []shardNode
	replicas []shardNode
	reps     []*Replica
	world    *ncexplorer.QueryWorld
	router   *Router
	rts      *httptest.Server
}

// newTestCluster builds an nShards-way cluster over the tiny world —
// each shard a leader (checkpointing into its shipping directory) plus
// one replica — and a monolithic reference server over the union
// corpus. Shard leaders merge aggressively (MaxSegments 2) so segment
// reorganisation happens mid-schedule; the reference never merges, so
// the equality also proves merge invariance end to end.
func newTestCluster(t testing.TB, nShards int) *testCluster {
	t.Helper()
	ctx := context.Background()
	tc := &testCluster{t: t, ctx: ctx}

	monoX, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny", MaxSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	tc.monoX = monoX
	tc.mono = httptest.NewServer(server.New(monoX, server.Options{}).Handler())
	t.Cleanup(tc.mono.Close)

	shards := make([][]string, nShards)
	for i := 0; i < nShards; i++ {
		x, err := ncexplorer.New(ncexplorer.Config{
			Scale: "tiny", Shard: i, ShardCount: nShards, MaxSegments: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := x.Save(dir); err != nil {
			t.Fatal(err)
		}
		x.CheckpointTo(dir)
		lsrv := server.New(x, server.Options{EnableCluster: true, ClusterDataDir: dir})
		lts := httptest.NewServer(lsrv.Handler())
		t.Cleanup(lts.Close)
		tc.leaders = append(tc.leaders, shardNode{x: x, srv: lsrv, ts: lts})

		rdir := t.TempDir()
		rsrv := server.New(nil, server.Options{EnableCluster: true, ClusterDataDir: rdir})
		rts := httptest.NewServer(rsrv.Handler())
		t.Cleanup(rts.Close)
		tc.replicas = append(tc.replicas, shardNode{srv: rsrv, ts: rts})
		tc.reps = append(tc.reps, &Replica{
			Fetcher: &Fetcher{BaseURL: lts.URL, Dir: rdir},
			OnSwap:  rsrv.SetExplorer,
			Status:  rsrv.SetSyncState,
			Logf:    t.Logf,
		})
		shards[i] = []string{lts.URL, rts.URL}
	}

	world, err := ncexplorer.NewQueryWorld("tiny", 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.world = world
	tc.router = &Router{World: world, Shards: shards, Logf: t.Logf}
	tc.rts = httptest.NewServer(tc.router.Handler())
	t.Cleanup(tc.rts.Close)

	// First statistics exchange makes every shard score corpus-globally,
	// then the replicas catch up to the post-exchange snapshots.
	if err := tc.router.SyncStats(ctx); err != nil {
		t.Fatal(err)
	}
	tc.catchUp()
	return tc
}

// catchUp drives every replica through one synchronous catch-up step.
func (tc *testCluster) catchUp() {
	tc.t.Helper()
	for i, rep := range tc.reps {
		if _, err := rep.SyncOnce(tc.ctx); err != nil {
			tc.t.Fatalf("replica %d catch-up: %v", i, err)
		}
	}
}

// ingest commits one article batch to a shard leader and the
// monolithic reference, then restores the cluster invariants the
// router maintains in production: statistics exchanged, replicas
// caught up.
func (tc *testCluster) ingest(target int, seed uint64, n int) {
	tc.t.Helper()
	batch, err := tc.monoX.SampleArticles(seed, n)
	if err != nil {
		tc.t.Fatal(err)
	}
	res, err := tc.leaders[target].x.Ingest(tc.ctx, batch)
	if err != nil {
		tc.t.Fatal(err)
	}
	// The replicas below ship the leader's ON-DISK manifest, and the
	// checkpoint writer is asynchronous: wait for the batch's durability
	// barrier (as a polling replica effectively does in production)
	// before catching them up.
	tc.leaders[target].x.WaitDurable(res.PersistSeq)
	if _, err := tc.monoX.Ingest(tc.ctx, batch); err != nil {
		tc.t.Fatal(err)
	}
	if err := tc.router.SyncStats(tc.ctx); err != nil {
		tc.t.Fatal(err)
	}
	tc.catchUp()
}

// postJSON sends one query and returns (status, body).
func postJSON(t testing.TB, base, path string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return send(t, http.MethodPost, base+path, payload)
}

// send issues one request with a raw body and returns (status, body).
func send(t testing.TB, method, url string, payload []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// queryReq is the public /v2 query body.
type queryReq = server.QueryRequest

// checkEquivalence compares router and monolithic answers — status and
// raw bytes — across the query grid, including requests that must fail
// (typed error envelopes are part of the byte-identity contract).
func (tc *testCluster) checkEquivalence(stage string) {
	tc.t.Helper()
	var queries [][]string
	for _, topic := range tc.world.EvaluationTopics() {
		queries = append(queries, []string{topic[0]}, []string{topic[0], topic[1]})
	}
	var reqs []queryReq
	for _, concepts := range queries {
		for _, k := range []int{1, 3, 8} {
			for _, offset := range []int{0, 2} {
				for _, minScore := range []float64{0, 0.05} {
					req := queryReq{
						Concepts: concepts, K: k, Offset: offset,
						MinScore: minScore, Explain: k == 3,
					}
					if k == 8 && offset == 0 {
						req.Sources = []string{"reuters", "nyt"}
					}
					reqs = append(reqs, req)
				}
			}
		}
	}
	// Error-path probes: same envelope bytes required on both paths.
	reqs = append(reqs,
		queryReq{Concepts: queries[0], K: -3},
		queryReq{Concepts: queries[0], Offset: -1},
		queryReq{Concepts: queries[0], MinScore: 2},
		queryReq{Concepts: []string{"no-such-concept"}},
		queryReq{Concepts: []string{}},
		queryReq{Concepts: []string{queries[0][0], "FTX"}}, // an entity, not a concept
		queryReq{Concepts: queries[0], Sources: []string{"tabloid"}},
		// Not an error: k+offset overflows int, and the answer is an
		// empty page with next_offset -1.
		queryReq{Concepts: queries[0], Offset: math.MaxInt - 5},
	)
	for _, op := range []string{"rollup", "drilldown"} {
		path := "/v2/query/" + op
		for _, req := range reqs {
			if op == "drilldown" {
				req.Sources = nil
			}
			wantStatus, want := postJSON(tc.t, tc.mono.URL, path, req)
			gotStatus, got := postJSON(tc.t, tc.rts.URL, path, req)
			if gotStatus != wantStatus || !bytes.Equal(got, want) {
				tc.t.Fatalf("%s: %s diverges for %+v:\n got  (%d): %s\n want (%d): %s",
					stage, path, req, gotStatus, got, wantStatus, want)
			}
		}
	}
	// Front-door probes: decode, method and path failures, the drill-down
	// field rejections, the facade's time and group_by rules, and
	// temporal successes through the period merge.
	raw := func(q queryReq) string { b, _ := json.Marshal(q); return string(b) }
	c := queries[0]
	since := &ncexplorer.TimeRange{Start: "2000-01-01T00:00:00Z"}
	for _, p := range []struct{ method, path, body string }{
		{"POST", "/v2/query/rollup", `{"concepts":["` + strings.Repeat("x", 2<<20) + `"]}`},
		{"POST", "/v2/query/rollup", `{not json`},
		{"POST", "/v2/query/drilldown", ``},
		{"POST", "/v2/query/drilldown", raw(queryReq{Concepts: c, Sources: []string{"reuters"}})},
		{"POST", "/v2/query/drilldown", raw(queryReq{Concepts: c, GroupBy: "week"})},
		{"POST", "/v2/query/rollup", raw(queryReq{Concepts: c, GroupBy: "fortnight"})},
		{"POST", "/v2/query/rollup", raw(queryReq{Concepts: c, Time: &ncexplorer.TimeRange{Start: "yesterday"}})},
		{"POST", "/v2/query/drilldown", raw(queryReq{Concepts: c, Time: &ncexplorer.TimeRange{Start: "2024-01-01T00:00:00Z", End: "2023-01-01T00:00:00Z"}})},
		{"POST", "/v2/query/rollup", raw(queryReq{Concepts: c, K: 4, Offset: 1, Time: since, GroupBy: "week"})},
		{"POST", "/v2/query/drilldown", raw(queryReq{Concepts: c, K: 4, Time: since, Explain: true})},
		{"GET", "/v2/query/rollup", ``},
		{"POST", "/v2/query/nope", `{}`},
	} {
		wantStatus, want := send(tc.t, p.method, tc.mono.URL+p.path, []byte(p.body))
		gotStatus, got := send(tc.t, p.method, tc.rts.URL+p.path, []byte(p.body))
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			tc.t.Fatalf("%s: %s %s probe diverges for %.200s:\n got  (%d): %s\n want (%d): %s",
				stage, p.method, p.path, p.body, gotStatus, got, wantStatus, want)
		}
	}
}

// TestRouterMatchesMonolithic is the acceptance contract: a 2-shard
// cluster behind the router answers byte-identically to a monolithic
// server over the union corpus, for roll-up and drill-down across the
// K/offset/filter/explain grid, at the seed generation, after every
// batch of a randomized ingest schedule, and after background merges
// settle.
func TestRouterMatchesMonolithic(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.checkEquivalence("seed")

	// Pseudo-random schedule: alternating targets, growing batches.
	targets := []int{1, 0, 0, 1}
	for i, target := range targets {
		tc.ingest(target, 9500+uint64(i), 4+i)
		tc.checkEquivalence(fmt.Sprintf("batch %d (shard %d)", i, target))
	}

	// Let the aggressive shard merge policies reorganise segments, ship
	// the reorganised snapshots, and re-check: merges change files
	// without changing answers or generations.
	for _, l := range tc.leaders {
		l.x.Quiesce()
	}
	tc.monoX.Quiesce()
	tc.catchUp()
	tc.checkEquivalence("after merges")
}

// TestRouterTopicsMatchesMonolithic pins the graph-only endpoint the
// router answers locally from its QueryWorld.
func TestRouterTopicsMatchesMonolithic(t *testing.T) {
	tc := newTestCluster(t, 2)
	for _, path := range []string{"/v1/topics"} {
		want := getBody(t, tc.mono.URL+path)
		got := getBody(t, tc.rts.URL+path)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverges:\n got:  %s\n want: %s", path, got, want)
		}
	}
	// Keywords proxy: the router forwards to any live replica; topic
	// keywords are deterministic graph+connectivity data, so the bytes
	// must match the monolithic answer too.
	topics := tc.world.EvaluationTopics()
	path := "/v1/keywords/" + strings.ReplaceAll(topics[0][0], " ", "%20")
	want := getBody(t, tc.mono.URL+path)
	got := getBody(t, tc.rts.URL+path)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverges:\n got:  %s\n want: %s", path, got, want)
	}
	// The proxy re-escapes the decoded concept: a '?', '#' or '/' inside
	// it must reach the shard as part of the name, not split the URL.
	for _, path := range []string{"/v1/keywords/Foo%3Fbar?n=3", "/v1/keywords/Foo%23bar", "/v1/keywords/Foo%2Fbar"} {
		wantCode, want := send(t, http.MethodGet, tc.mono.URL+path, nil)
		gotCode, got := send(t, http.MethodGet, tc.rts.URL+path, nil)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("%s diverges:\n got:  %d %s\n want: %d %s", path, gotCode, got, wantCode, want)
		}
	}
	// Router-only endpoints; the stats-sync loop ends with its context.
	getBody(t, tc.rts.URL+"/healthz")
	if st := getBody(t, tc.rts.URL+"/statsz"); !bytes.Contains(st, []byte(`"topics":1`)) {
		t.Fatalf("router /statsz does not count the topics request: %s", st)
	}
	ctx, cancel := context.WithCancel(tc.ctx)
	cancel()
	tc.router.RunStatsSync(ctx, time.Millisecond)
}

func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	return data
}
