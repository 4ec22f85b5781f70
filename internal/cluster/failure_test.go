package cluster

// Failure-mode contracts: what the router answers when shards are
// down, hung, or mid-catch-up, and what the shipping layer does on a
// replica restart. All typed, all pinned.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ncexplorer"
	"ncexplorer/internal/core"
	"ncexplorer/internal/segio"
	"ncexplorer/internal/server"
)

// errEnvelope decodes the /v2 error body.
type errEnvelope struct {
	Error struct {
		Code    string         `json:"code"`
		Message string         `json:"message"`
		Details map[string]any `json:"details"`
	} `json:"error"`
}

func decodeEnvelope(t *testing.T, body []byte) errEnvelope {
	t.Helper()
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %v: %s", err, body)
	}
	return env
}

// routerOver builds a router over explicit replica lists, reusing the
// harness world.
func routerOver(t *testing.T, tc *testCluster, timeout time.Duration, shards ...[]string) *httptest.Server {
	t.Helper()
	rt := &Router{World: tc.world, Shards: shards, Timeout: timeout, Logf: t.Logf}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRouterFailureModes(t *testing.T) {
	tc := newTestCluster(t, 2)
	shard0 := tc.router.Shards[0]
	rollup := func(base string, path string) (int, []byte) {
		return postJSON(t, base, path, queryReq{Concepts: []string{tc.world.EvaluationTopics()[0][0]}, K: 5})
	}

	t.Run("shard down is typed shard_unavailable", func(t *testing.T) {
		// Shard 1's replicas all point at a closed port.
		ts := routerOver(t, tc, 2*time.Second, shard0, []string{"http://127.0.0.1:1"})
		status, body := rollup(ts.URL, "/v2/query/rollup")
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503: %s", status, body)
		}
		env := decodeEnvelope(t, body)
		if env.Error.Code != string(ncexplorer.CodeShardUnavailable) {
			t.Fatalf("code = %q, want shard_unavailable: %s", env.Error.Code, body)
		}
		if shard, ok := env.Error.Details["shard"].(float64); !ok || int(shard) != 1 {
			t.Fatalf("details.shard = %v, want 1", env.Error.Details["shard"])
		}
	})

	t.Run("hung shard is typed deadline_exceeded", func(t *testing.T) {
		hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		t.Cleanup(hung.Close)
		ts := routerOver(t, tc, 100*time.Millisecond, shard0, []string{hung.URL})
		status, body := rollup(ts.URL, "/v2/query/drilldown")
		if status != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504: %s", status, body)
		}
		env := decodeEnvelope(t, body)
		if env.Error.Code != string(ncexplorer.CodeDeadlineExceeded) {
			t.Fatalf("code = %q, want deadline_exceeded: %s", env.Error.Code, body)
		}
	})

	t.Run("partial=true merges the answering shards", func(t *testing.T) {
		ts := routerOver(t, tc, 2*time.Second, shard0, []string{"http://127.0.0.1:1"})
		// Without the opt-in: refused.
		status, _ := rollup(ts.URL, "/v2/query/rollup")
		if status != http.StatusServiceUnavailable {
			t.Fatalf("non-partial status = %d, want 503", status)
		}
		// With it: the live shard's contribution, marked partial.
		status, body := rollup(ts.URL, "/v2/query/rollup?partial=true")
		if status != http.StatusOK {
			t.Fatalf("partial status = %d, want 200: %s", status, body)
		}
		var res struct {
			Partial    bool   `json:"partial"`
			Generation uint64 `json:"generation"`
			Total      int    `json:"total"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatalf("partial flag missing: %s", body)
		}
		if res.Generation == 0 {
			t.Fatalf("partial answer carries no generation: %s", body)
		}
		// And a full (non-partial) success must not carry the field at
		// all — byte-identity with the monolithic encoding depends on it.
		_, full := rollup(tc.rts.URL, "/v2/query/rollup?partial=true")
		if bytes.Contains(full, []byte(`"partial"`)) {
			t.Fatalf("healthy cluster answer leaks the partial marker: %s", full)
		}
	})

	t.Run("dead replica falls back to the next", func(t *testing.T) {
		// The dead URL sits last, so the router tries it first and must
		// transparently fall back to the live leader.
		ts := routerOver(t, tc, 2*time.Second,
			[]string{shard0[0], "http://127.0.0.1:1"}, tc.router.Shards[1])
		status, body := rollup(ts.URL, "/v2/query/rollup")
		if status != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", status, body)
		}
		_, want := rollup(tc.rts.URL, "/v2/query/rollup")
		if !bytes.Equal(body, want) {
			t.Fatalf("failover answer diverges:\n got:  %s\n want: %s", body, want)
		}
	})

	t.Run("syncing replica is excluded by readiness", func(t *testing.T) {
		// A replica mid-catch-up answers 503 syncing everywhere; the
		// router must skip it and use the leader.
		syncing := server.New(nil, server.Options{EnableCluster: true})
		syncing.SetSyncState(3, 9, true)
		sts := httptest.NewServer(syncing.Handler())
		t.Cleanup(sts.Close)
		ts := routerOver(t, tc, 2*time.Second,
			[]string{shard0[0], sts.URL}, tc.router.Shards[1])
		status, body := rollup(ts.URL, "/v2/query/rollup")
		if status != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", status, body)
		}
		_, want := rollup(tc.rts.URL, "/v2/query/rollup")
		if !bytes.Equal(body, want) {
			t.Fatalf("answer with syncing replica diverges:\n got:  %s\n want: %s", body, want)
		}
	})
}

// TestReplicaRestartFetchesOnlyMissingSegments pins the shipping
// economics: a replica that restarts with its mirror intact re-fetches
// nothing it already holds — segments and conn companions alike —
// so catch-up cost is proportional to what changed since, not to
// corpus size.
func TestReplicaRestartFetchesOnlyMissingSegments(t *testing.T) {
	ctx := context.Background()
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny", MaxSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	x.CheckpointTo(dir)
	srv := httptest.NewServer(server.New(x, server.Options{ClusterDataDir: dir}).Handler())
	defer srv.Close()
	ingest := func(seed uint64) {
		t.Helper()
		batch, err := x.SampleArticles(seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		x.Quiesce() // the checkpoint lands asynchronously; replicas ship durable state
	}
	// referenced counts the files a manifest pins: segments and their
	// companions.
	referenced := func(m *segio.Manifest) int {
		n := len(m.Segments)
		for _, ref := range m.Segments {
			if ref.Conn != "" {
				n++
			}
		}
		return n
	}

	// One checkpointed batch before the first sync, so the mirror starts
	// out holding a companion.
	ingest(6)
	rdir := t.TempDir()
	first := &Fetcher{BaseURL: srv.URL, Dir: rdir}
	m1, changed, err := first.Sync(ctx)
	if err != nil || !changed {
		t.Fatalf("initial sync: changed=%v err=%v", changed, err)
	}
	c1 := first.Counters()
	if c1.SegmentsFetched != int64(referenced(m1)) || c1.BytesShipped == 0 {
		t.Fatalf("initial sync shipped %+v for %d referenced files", c1, referenced(m1))
	}
	if m1.Segments[len(m1.Segments)-1].Conn == "" {
		t.Fatal("checkpointed segment carries no conn companion")
	}

	// The leader commits one more batch: exactly one new segment and its
	// companion appear.
	ingest(7)

	// "Restart": a fresh fetcher over the surviving mirror. It must ship
	// only the delta and reuse every file it holds, companions included.
	second := &Fetcher{BaseURL: srv.URL, Dir: rdir}
	m, changed, err := second.Sync(ctx)
	if err != nil || !changed {
		t.Fatalf("post-restart sync: changed=%v err=%v", changed, err)
	}
	c2 := second.Counters()
	if c2.SegmentsFetched != 2 || c2.SegmentsReused != int64(referenced(m1)) {
		t.Fatalf("restarted replica: %+v, want 2 files fetched (segment + companion) and %d reused",
			c2, referenced(m1))
	}

	// The mirror must open at the leader's generation.
	y, err := ncexplorer.Open(rdir, ncexplorer.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if y.Generation() != x.Generation() || y.Generation() != m.Generation {
		t.Fatalf("mirror generation %d, leader %d, manifest %d",
			y.Generation(), x.Generation(), m.Generation)
	}
	if y.NumArticles() != x.NumArticles() {
		t.Fatalf("mirror holds %d articles, leader %d", y.NumArticles(), x.NumArticles())
	}

	// An unchanged leader is a no-op poll: nothing ships.
	third := &Fetcher{BaseURL: srv.URL, Dir: rdir}
	if _, changed, err := third.Sync(ctx); err != nil || changed {
		t.Fatalf("idle sync: changed=%v err=%v", changed, err)
	}
	if c3 := third.Counters(); c3.SegmentsFetched != 0 || c3.BytesShipped != 0 {
		t.Fatalf("idle sync shipped data: %+v", c3)
	}
}

// TestReplicaCatchUpWalksNothing: a leader under steady ingest only
// checkpoints, never saves. The conn companions its checkpoints write
// ship with the segments, and a
// replica's warm open re-runs no random walk the leader already ran —
// while answering exactly what the leader answers.
func TestReplicaCatchUpWalksNothing(t *testing.T) {
	ctx := context.Background()
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny", MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	x.CheckpointTo(dir)
	srv := httptest.NewServer(server.New(x, server.Options{ClusterDataDir: dir}).Handler())
	defer srv.Close()
	var served *ncexplorer.Explorer
	rep := &Replica{
		Fetcher: &Fetcher{BaseURL: srv.URL, Dir: t.TempDir()},
		OnSwap:  func(y *ncexplorer.Explorer) { served = y },
		Logf:    t.Logf,
	}
	ingest := func(seed uint64, n int) {
		t.Helper()
		batch, err := x.SampleArticles(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		x.Quiesce()
	}

	ingest(31, 6) // the initial publish is a checkpoint
	if _, err := rep.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ { // MaxSegments 2: merges fold segments in between
		ingest(32+i, 5+int(i))
	}
	if swapped, err := rep.SyncOnce(ctx); err != nil || !swapped {
		t.Fatalf("catch-up: swapped=%v err=%v", swapped, err)
	}
	m, err := segio.ReadManifest(rep.Fetcher.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range m.Segments {
		if ref.Conn == "" {
			t.Fatalf("shipped segment %s carries no conn companion", ref.File)
		}
	}
	if served.Generation() != x.Generation() || served.NumArticles() != x.NumArticles() {
		t.Fatalf("replica at generation %d with %d articles, leader at %d with %d",
			served.Generation(), served.NumArticles(), x.Generation(), x.NumArticles())
	}
	if c := served.Stats().EngineCache.Conn; c.Misses != 0 || c.Entries == 0 {
		t.Fatalf("replica open re-walked: conn memo %+v, want 0 misses", c)
	}
	for _, topic := range x.EvaluationTopics() {
		for _, concepts := range [][]string{{topic[0]}, {topic[0], topic[1]}} {
			want, err := x.RollUpQuery(ctx, ncexplorer.RollUpRequest{Concepts: concepts, K: 5, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := served.RollUpQuery(ctx, ncexplorer.RollUpRequest{Concepts: concepts, K: 5, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(got)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("replica roll-up %v diverges:\n got:  %s\n want: %s", concepts, gb, wb)
			}
		}
	}
}

// TestReplicaReadinessGate pins the 503 syncing body shape and the
// transition to serving after the first catch-up.
func TestReplicaReadinessGate(t *testing.T) {
	ctx := context.Background()
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	leader := httptest.NewServer(server.New(x, server.Options{ClusterDataDir: dir}).Handler())
	defer leader.Close()

	rsrv := server.New(nil, server.Options{})
	rts := httptest.NewServer(rsrv.Handler())
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-catch-up healthz = %d, want 503: %s", resp.StatusCode, body)
	}
	var st struct {
		State      string `json:"state"`
		Generation uint64 `json:"generation"`
		Target     uint64 `json:"target"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.State != "syncing" {
		t.Fatalf("syncing body = %s (err %v)", body, err)
	}

	rep := &Replica{
		Fetcher: &Fetcher{BaseURL: leader.URL, Dir: t.TempDir()},
		OnSwap:  rsrv.SetExplorer,
		Status:  rsrv.SetSyncState,
		Logf:    t.Logf,
	}
	if swapped, err := rep.SyncOnce(ctx); err != nil || !swapped {
		t.Fatalf("catch-up: swapped=%v err=%v", swapped, err)
	}
	resp, err = http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-catch-up healthz = %d: %s", resp.StatusCode, body)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestRouterRejectsBadPartialsFrames pins the router's side of the
// binary drill-down hop: a shard answer that is not a readable partials
// frame, or a frame whose contents do not fit the graph, ends the
// request in a typed error — never a panic, never a page. So does a
// phase-two answer at another generation than phase one's: past the
// retry budget the barrier refuses it, naming the shard. Shard 1 is a
// proxy that forwards to the real shard and tampers with one route's
// answer.
func TestRouterRejectsBadPartialsFrames(t *testing.T) {
	tc := newTestCluster(t, 2)
	real1 := tc.router.Shards[1][0]
	// recodeRows and recodeSets decode a frame, mutate it, and encode it
	// again. They run on the proxy's goroutine, so they report with
	// t.Error.
	recodeRows := func(mutate func(*core.DrillDownPartial)) func(http.Header, []byte) []byte {
		return func(_ http.Header, body []byte) []byte {
			var p core.DrillDownPartial
			if err := p.UnmarshalBinary(body); err != nil {
				t.Error(err)
				return body
			}
			mutate(&p)
			out, err := p.MarshalBinary()
			if err != nil {
				t.Error(err)
			}
			return out
		}
	}
	recodeSets := func(mutate func(*core.DiversityPartial)) func(http.Header, []byte) []byte {
		return func(_ http.Header, body []byte) []byte {
			var p core.DiversityPartial
			if err := p.UnmarshalBinary(body); err != nil {
				t.Error(err)
				return body
			}
			mutate(&p)
			out, err := p.MarshalBinary()
			if err != nil {
				t.Error(err)
			}
			return out
		}
	}
	const rows, sets = "/internal/query/drilldown-partials", "/internal/query/diversity"
	cases := []struct {
		name      string
		path      string
		tamper    func(http.Header, []byte) []byte
		wantShard bool // the error names shard 1
		skew      bool // a barrier refusal: 503 shard_unavailable, not 500 internal
	}{
		{"JSON content type", rows, func(h http.Header, b []byte) []byte {
			h.Set("Content-Type", "application/json")
			return b
		}, true, false},
		{"bad magic", rows, func(_ http.Header, b []byte) []byte { b[0] ^= 0xFF; return b }, true, false},
		{"future version", sets, func(_ http.Header, b []byte) []byte { b[4] = 0x7F; return b }, true, false},
		{"truncated frame", rows, func(_ http.Header, b []byte) []byte { return b[:len(b)-1] }, true, false},
		{"trailing bytes", sets, func(_ http.Header, b []byte) []byte { return append(b, 0) }, true, false},
		{"concept outside the graph", rows, recodeRows(func(p *core.DrillDownPartial) {
			p.Rows[0].Concepts[0] = 1 << 30
		}), false, false},
		{"too few diversity sets", sets, recodeSets(func(p *core.DiversityPartial) {
			p.Sets = p.Sets[:len(p.Sets)-1]
		}), false, false},
		{"entity outside the graph", sets, recodeSets(func(p *core.DiversityPartial) {
			for i := range p.Sets {
				p.Sets[i] = append(p.Sets[i], 1<<30)
			}
		}), false, false},
		// Phase two at another generation than phase one, on every retry.
		{"diversity sets at another generation", sets, recodeSets(func(p *core.DiversityPartial) {
			p.Generation++
		}), true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				req, _ := http.NewRequestWithContext(r.Context(), r.Method, real1+r.URL.RequestURI(), r.Body)
				req.Header = r.Header.Clone()
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					w.WriteHeader(http.StatusBadGateway)
					return
				}
				body, _ := readAll(resp)
				for k, v := range resp.Header {
					w.Header()[k] = v
				}
				if r.URL.Path == c.path && resp.StatusCode == http.StatusOK {
					body = c.tamper(w.Header(), body)
				}
				w.Header().Del("Content-Length")
				w.WriteHeader(resp.StatusCode)
				w.Write(body)
			}))
			t.Cleanup(proxy.Close)
			ts := routerOver(t, tc, 2*time.Second, tc.router.Shards[0], []string{proxy.URL})
			req := queryReq{Concepts: []string{tc.world.EvaluationTopics()[0][0]}, K: 5}
			for _, path := range []string{"/v2/query/drilldown", "/v2/query/drilldown?partial=true"} {
				wantStatus, wantCode := http.StatusInternalServerError, ncexplorer.CodeInternal
				if c.skew {
					wantStatus, wantCode = http.StatusServiceUnavailable, ncexplorer.CodeShardUnavailable
				}
				status, body := postJSON(t, ts.URL, path, req)
				if status != wantStatus {
					t.Fatalf("%s: status = %d, want %d: %s", path, status, wantStatus, body)
				}
				env := decodeEnvelope(t, body)
				if env.Error.Code != string(wantCode) {
					t.Fatalf("%s: code = %q, want %s: %s", path, env.Error.Code, wantCode, body)
				}
				if shard, ok := env.Error.Details["shard"].(float64); c.wantShard && (!ok || int(shard) != 1) {
					t.Fatalf("%s: details.shard = %v, want 1: %s", path, env.Error.Details["shard"], body)
				}
			}
			// The untampered route through the same proxy still answers.
			status, body := postJSON(t, ts.URL, "/v2/query/rollup", req)
			if status != http.StatusOK {
				t.Fatalf("roll-up through the proxy = %d: %s", status, body)
			}
		})
	}
}
