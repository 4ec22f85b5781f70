package cluster

// The scatter-gather query router: the public /v2 query surface over a
// sharded corpus, answering byte-identically to a monolithic server.
// The router mounts the server's query front door (server.Front) —
// decode, normalization, the facade's validation, the error envelope
// and the 404/405 fallbacks are the server's own code — and supplies
// only the execute step: scatter to the shards and merge.
//
// Exactness rests on three pieces. (1) Shards score corpus-globally:
// the router runs the term-statistics exchange (SyncStats) that folds
// every shard's document frequencies into every other's IDF, so a
// per-document score is the same number everywhere. (2) Merges replay
// monolithic arithmetic: roll-up pages merge under the shards' own
// (score desc, doc asc) total order; drill-down ships raw accumulation
// rows and replays the float-addition sequence in ascending global
// document order (core.MergeDrillDown), then unions each shortlisted
// concept's diversity sets across shards. Both drill-down phases travel
// as binary partials frames (internal/core/frame.go) carrying every cdr
// as its exact bits; a frame this router cannot read — wrong
// Content-Type, magic or version, or malformed — is a typed error
// naming the shard, never a guess. (3) A generation barrier
// refuses torn reads: every shard answer carries the generation it was
// served from, and the router only merges a set of answers at one
// common generation — on skew it re-syncs statistics and refetches,
// and past its retry budget it returns a typed error rather than an
// almost-right page. Within one shard's replica set, each request is
// answered wholly by one replica (generation pinning per request);
// across shards the barrier enforces one common generation per merge.
//
// Failure modes are typed, matching the /v2 error envelope: a shard
// whose replicas are all down or syncing yields shard_unavailable
// (503), a shard that exhausts the per-shard timeout budget yields
// deadline_exceeded (504). Callers that prefer availability over
// completeness opt in with ?partial=true, which merges the shards that
// did answer and marks the response "partial": true.

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"ncexplorer"
	"ncexplorer/internal/core"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/server"
)

// Router fans public queries out across corpus shards and merges the
// answers exactly. Shards[i] lists shard i's replica base URLs, the
// leader first; reads prefer later entries (replicas) and fall back
// toward the leader, writes (the stats exchange) go to the leader
// only.
type Router struct {
	// World resolves and renders concept names — the same deterministic
	// graph every shard was built on.
	World *ncexplorer.QueryWorld
	// Shards is the cluster layout: one replica-URL list per corpus
	// shard, leader first.
	Shards [][]string
	// Client is the HTTP client for shard calls (nil: http.DefaultClient).
	Client *http.Client
	// Timeout bounds each shard's whole answer — all replica attempts
	// included (default 10s).
	Timeout time.Duration
	// MaxK caps k like the public server does (default 100).
	MaxK int
	// Logf, when set, receives router diagnostics.
	Logf func(format string, args ...any)

	front   *server.Front
	once    sync.Once
	started time.Time

	statsSyncs atomic.Int64
	generation atomic.Uint64
}

func (rt *Router) logf(format string, args ...any) {
	if rt.Logf != nil {
		rt.Logf(format, args...)
	}
}

func (rt *Router) client() *http.Client {
	if rt.Client != nil {
		return rt.Client
	}
	return http.DefaultClient
}

func (rt *Router) timeout() time.Duration {
	if rt.Timeout > 0 {
		return rt.Timeout
	}
	return 10 * time.Second
}

func (rt *Router) maxK() int {
	if rt.MaxK > 0 {
		return rt.MaxK
	}
	return 100
}

// Handler returns the router's HTTP surface: the server's query front
// door (the /v2 query endpoints and /v1/topics from the router's own
// graph) over the scatter-gather exec, the keywords proxy, and the
// router's own health/stats endpoints.
func (rt *Router) Handler() http.Handler {
	rt.once.Do(func() {
		rt.started = time.Now()
		rt.front = server.NewFront(rt.maxK(), rt.exec, rt.World.EvaluationTopics)
		rt.front.Handle("GET /v1/keywords/{concept}", "keywords", rt.handleKeywords)
		rt.front.Handle("GET /healthz", "healthz", rt.handleHealthz)
		rt.front.Handle("GET /statsz", "statsz", rt.handleStatsz)
	})
	return rt.front.Handler()
}

// exec is the router's server.QueryExec: scatter and merge, merging
// only the answering shards when the caller opts in with ?partial=true.
func (rt *Router) exec(_ http.ResponseWriter, r *http.Request, op string, q server.QueryRequest) ([]byte, error) {
	allowPartial := r.URL.Query().Get("partial") == "true"
	if op == "rollup" {
		return rt.rollUp(r.Context(), q.RollUp(), allowPartial)
	}
	return rt.drillDown(r.Context(), q.DrillDown(), allowPartial)
}

// envelope decodes a shard's /v2-style error response.
type envelope struct {
	Error struct {
		Code    ncexplorer.ErrorCode `json:"code"`
		Message string               `json:"message"`
		Details map[string]any       `json:"details,omitempty"`
	} `json:"error"`
}

// shardUnavailable builds the typed error for a shard the router could
// not get an answer from.
func shardUnavailable(shard int, reason string) *ncexplorer.Error {
	return &ncexplorer.Error{
		Code:    ncexplorer.CodeShardUnavailable,
		Message: fmt.Sprintf("ncexplorer: shard %d unavailable: %s", shard, reason),
		Details: map[string]any{"shard": shard},
	}
}

// shardDeadline builds the typed error for a shard that exhausted the
// per-shard timeout budget.
func shardDeadline(shard int) *ncexplorer.Error {
	return &ncexplorer.Error{
		Code:    ncexplorer.CodeDeadlineExceeded,
		Message: fmt.Sprintf("ncexplorer: shard %d exceeded the query deadline", shard),
		Details: map[string]any{"shard": shard},
	}
}

// shardBadFrame builds the typed error for a shard whose answer is not
// a partials frame this router reads. It is not an availability error:
// the shard answered, and what it said cannot be merged.
func shardBadFrame(shard int, err error) *ncexplorer.Error {
	return &ncexplorer.Error{
		Code:    ncexplorer.CodeInternal,
		Message: fmt.Sprintf("ncexplorer: shard %d answered an unreadable partials frame: %v", shard, err),
		Details: map[string]any{"shard": shard},
		Err:     err,
	}
}

// shardPost sends one scatter call to shard i, trying its replicas
// last-to-first (replicas before leader, so read traffic drains off
// the ingest path) under the shard's timeout budget. A replica that is
// down, refusing, or syncing (503) is skipped; a replica that answers
// an application error (4xx/5xx envelope) ends the attempt — the same
// request would fail identically everywhere. The answer decodes into
// out: as a partials frame when out is an encoding.BinaryUnmarshaler,
// as JSON otherwise.
func (rt *Router) shardPost(ctx context.Context, shard int, path string, reqBody, out any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, rt.timeout())
	defer cancel()
	replicas := rt.Shards[shard]
	var lastErr error
	for i := len(replicas) - 1; i >= 0; i-- {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, replicas[i]+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client().Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Syncing or explicitly not ready: exclude this replica and
			// try the next one.
			lastErr = fmt.Errorf("replica %s not ready", replicas[i])
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var env envelope
			if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
				return &ncexplorer.Error{Code: env.Error.Code, Message: env.Error.Message, Details: env.Error.Details}
			}
			return fmt.Errorf("shard %d: %s: %s", shard, resp.Status, bytes.TrimSpace(body))
		}
		if frame, ok := out.(encoding.BinaryUnmarshaler); ok {
			if ct := resp.Header.Get("Content-Type"); ct != core.PartialsContentType {
				return shardBadFrame(shard, fmt.Errorf("Content-Type %q, want %q", ct, core.PartialsContentType))
			}
			if err := frame.UnmarshalBinary(body); err != nil {
				return shardBadFrame(shard, err)
			}
			return nil
		}
		return json.Unmarshal(body, out)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return shardDeadline(shard)
	}
	if lastErr != nil {
		return shardUnavailable(shard, lastErr.Error())
	}
	return shardUnavailable(shard, "no replicas configured")
}

// isAvailabilityError reports whether err means "this shard could not
// be reached in time" (down, syncing, or timed out) as opposed to a
// deterministic application error that would fail the same request on
// any replica.
func isAvailabilityError(err error) bool {
	e, typed := ncexplorer.AsError(err)
	if !typed {
		return false
	}
	return e.Code == ncexplorer.CodeShardUnavailable || e.Code == ncexplorer.CodeDeadlineExceeded
}

// scatter runs fn for every shard concurrently and reports which
// succeeded. A deterministic application error always fails the
// request. Availability errors fail it too unless the caller opted
// into partial results and at least one shard answered.
func (rt *Router) scatter(allowPartial bool, n int, fn func(shard int) error) ([]bool, bool, error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	ok := make([]bool, n)
	okCount := 0
	var availErr error
	for i, err := range errs {
		switch {
		case err == nil:
			ok[i] = true
			okCount++
		case !isAvailabilityError(err):
			return nil, false, err
		case availErr == nil:
			availErr = err
		}
	}
	if availErr == nil {
		return ok, false, nil
	}
	if !allowPartial || okCount == 0 {
		return nil, false, availErr
	}
	rt.logf("cluster: router serving partial results (%d/%d shards): %v", okCount, n, availErr)
	return ok, true, nil
}

// skewError names the first shard whose answer broke the generation
// barrier.
type skewError int

func (s skewError) Error() string {
	return fmt.Sprintf("cluster: shard %d answered at a skewed generation", int(s))
}

// commonGeneration is the generation barrier over one request's
// answers: every shard that answered (ok[i]) must report one
// generation in every phase. gens[p](i) is shard i's generation in
// phase p. It returns that generation, or a skewError naming the first
// shard that differs from the first answer. A drill-down's barrier is
// core.MergeDrillDown, which applies the same rule to the answered
// shards; on its ErrGenerationSkew this names the shard.
func commonGeneration(ok []bool, gens ...func(shard int) uint64) (uint64, error) {
	var gen uint64
	first := true
	for _, phase := range gens {
		for i := range ok {
			switch g := phase(i); {
			case !ok[i]:
			case first:
				gen, first = g, false
			case g != gen:
				return 0, skewError(i)
			}
		}
	}
	return gen, nil
}

// skewRetries bounds generation-barrier retries, each preceded by a
// stats re-sync.
const skewRetries = 3

// underBarrier runs one scatter-and-merge round until it stops
// reporting generation skew: each skew re-syncs the term statistics
// and retries, and past the retry budget the request is refused with
// shard_unavailable naming the skewed shard.
func (rt *Router) underBarrier(ctx context.Context, op string, round func() ([]byte, error)) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		body, err := round()
		var skew skewError
		if !errors.As(err, &skew) {
			return body, err
		}
		if attempt >= skewRetries {
			return nil, shardUnavailable(int(skew), "generation skew past retry budget")
		}
		rt.logf("cluster: router %s generation skew at shard %d, re-syncing (attempt %d)", op, int(skew), attempt+1)
		rt.SyncStats(ctx)
	}
}

// answered keeps the answers of the shards that answered.
func answered[T any](all []T, ok []bool) []T {
	out := make([]T, 0, len(all))
	for i := range all {
		if ok[i] {
			out = append(out, all[i])
		}
	}
	return out
}

// partialRollUpResult adds the opt-in partial marker. When false the
// field is omitted, keeping the body byte-identical to the monolithic
// RollUpResult encoding.
type partialRollUpResult struct {
	ncexplorer.RollUpResult
	Partial bool `json:"partial,omitempty"`
}

type partialDrillDownResult struct {
	ncexplorer.DrillDownResult
	Partial bool `json:"partial,omitempty"`
}

// rollUp scatters a roll-up, asking each shard for its local
// top-(k+offset) page, and merges under the shared total order.
func (rt *Router) rollUp(ctx context.Context, req ncexplorer.RollUpRequest, allowPartial bool) ([]byte, error) {
	req, err := rt.World.ResolveRollUp(req)
	if err != nil {
		return nil, err
	}
	shardReq := req
	shardReq.K, shardReq.Offset = req.K+req.Offset, 0
	if shardReq.K < req.K { // a huge offset: saturate, never wrap negative
		shardReq.K = math.MaxInt
	}
	return rt.underBarrier(ctx, "roll-up", func() ([]byte, error) {
		results := make([]ncexplorer.RollUpResult, len(rt.Shards))
		ok, partial, err := rt.scatter(allowPartial, len(rt.Shards), func(i int) error {
			return rt.shardPost(ctx, i, "/internal/query/rollup", shardReq, &results[i])
		})
		if err != nil {
			return nil, err
		}
		gen, err := commonGeneration(ok, func(i int) uint64 { return results[i].Generation })
		if err != nil {
			return nil, err
		}
		rt.generation.Store(gen)
		return json.Marshal(partialRollUpResult{RollUpResult: ncexplorer.MergeRollUp(req, answered(results, ok)), Partial: partial})
	})
}

// drillDown scatters a drill-down: phase one gathers each shard's raw
// accumulation rows, phase two (inside core.MergeDrillDown, via the
// fetchSets callback) gathers the answering shards' diversity sets for
// the merged shortlist. The merge is the barrier: it refuses answers
// that span generations, and the router then names the skewed shard.
func (rt *Router) drillDown(ctx context.Context, req ncexplorer.DrillDownRequest, allowPartial bool) ([]byte, error) {
	req, err := rt.World.ResolveDrillDown(req)
	if err != nil {
		return nil, err
	}
	opts := core.DrillDownOptions{K: req.K, Offset: req.Offset, MinScore: req.MinScore}
	return rt.underBarrier(ctx, "drill-down", func() ([]byte, error) {
		parts := make([]core.DrillDownPartial, len(rt.Shards))
		ok, partial, err := rt.scatter(allowPartial, len(rt.Shards), func(i int) error {
			return rt.shardPost(ctx, i, "/internal/query/drilldown-partials",
				server.PartialsRequest{Concepts: req.Concepts, Time: req.Time}, &parts[i])
		})
		if err != nil {
			return nil, err
		}
		var divs []core.DiversityPartial
		fetchSets := func(short []kg.NodeID) ([]core.DiversityPartial, error) {
			divs = make([]core.DiversityPartial, len(rt.Shards))
			if _, _, err := rt.scatter(false, len(rt.Shards), func(i int) error {
				if !ok[i] {
					return nil
				}
				return rt.shardPost(ctx, i, "/internal/query/diversity",
					server.PartialsRequest{Concepts: req.Concepts, Shortlist: short, Time: req.Time}, &divs[i])
			}); err != nil {
				return nil, err
			}
			return answered(divs, ok), nil
		}
		page, err := core.MergeDrillDown(rt.World.Graph(), opts, answered(parts, ok), fetchSets)
		if errors.Is(err, core.ErrGenerationSkew) {
			phases := []func(int) uint64{func(i int) uint64 { return parts[i].Generation }}
			if divs != nil {
				phases = append(phases, func(i int) uint64 { return divs[i].Generation })
			}
			if _, serr := commonGeneration(ok, phases...); serr != nil {
				err = serr
			}
		}
		if err != nil {
			return nil, err
		}
		rt.generation.Store(page.Generation)
		return json.Marshal(partialDrillDownResult{DrillDownResult: rt.World.RenderDrillDown(req, page), Partial: partial})
	})
}

// handleKeywords proxies to the first shard that answers: topic
// keywords derive from the graph and the deterministic connectivity
// estimates, so every shard returns the same list.
func (rt *Router) handleKeywords(w http.ResponseWriter, r *http.Request) {
	path := "/v1/keywords/" + url.PathEscape(r.PathValue("concept"))
	if raw := r.URL.Query().Encode(); raw != "" {
		path += "?" + raw
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout())
	defer cancel()
	for _, replicas := range rt.Shards {
		for i := len(replicas) - 1; i >= 0; i-- {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, replicas[i]+path, nil)
			if err != nil {
				continue
			}
			resp, err := rt.client().Do(req)
			if err != nil {
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode == http.StatusServiceUnavailable {
				continue
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			w.Write(body)
			return
		}
	}
	rt.front.WriteError(w, shardUnavailable(0, "no replica answered the keywords proxy"))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.front.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"role":           "router",
		"shards":         len(rt.Shards),
		"generation":     rt.generation.Load(),
		"uptime_seconds": time.Since(rt.started).Seconds(),
	})
}

func (rt *Router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	type shardInfo struct {
		Replicas []string `json:"replicas"`
	}
	shards := make([]shardInfo, len(rt.Shards))
	for i, reps := range rt.Shards {
		shards[i] = shardInfo{Replicas: reps}
	}
	rt.front.WriteJSON(w, http.StatusOK, map[string]any{
		"role":           "router",
		"shards":         shards,
		"generation":     rt.generation.Load(),
		"stats_syncs":    rt.statsSyncs.Load(),
		"requests":       rt.front.Requests(),
		"uptime_seconds": time.Since(rt.started).Seconds(),
	})
}

// SyncStats runs the cross-leader term-statistics exchange: collect
// every leader's local statistics, fold each shard's peers into a
// remote summary, and post it back. Unchanged summaries are no-ops on
// the leader, so running this on a timer (and on barrier skew) is
// cheap in the steady state. After every leader accepts its summary,
// all shards report the same global generation and score with the same
// corpus-global IDF.
func (rt *Router) SyncStats(ctx context.Context) error {
	if len(rt.Shards) < 2 {
		// One shard already scores corpus-globally (it may not even be
		// built sharded), and has no peers to fold in.
		return nil
	}
	rt.statsSyncs.Add(1)
	stats := make([]server.ShardStatsResponse, len(rt.Shards))
	for i, replicas := range rt.Shards {
		if len(replicas) == 0 {
			return shardUnavailable(i, "no replicas configured")
		}
		if err := rt.getJSON(ctx, replicas[0]+"/internal/stats", &stats[i]); err != nil {
			return err
		}
	}
	for i, replicas := range rt.Shards {
		remote := core.ShardStats{DF: make(map[kg.NodeID]int)}
		for j := range stats {
			if j == i {
				continue
			}
			remote.Docs += stats[j].Stats.Docs
			remote.Batches += stats[j].Stats.Batches
			for v, df := range stats[j].Stats.DF {
				remote.DF[v] += df
			}
		}
		var ack struct {
			Generation uint64 `json:"generation"`
		}
		payload, err := json.Marshal(remote)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			replicas[0]+"/internal/remote-stats", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client().Do(req)
		if err != nil {
			return err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return rerr
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster: shard %d remote-stats: %s: %s", i, resp.Status, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			return err
		}
	}
	return nil
}

// RunStatsSync runs the exchange on a timer until ctx cancels —
// leaders that ingest independently drift apart between queries, and
// the timer bounds how stale one shard's view of the others' term
// statistics can get (the generation barrier converts residual drift
// into retries, never into wrong answers).
func (rt *Router) RunStatsSync(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := rt.SyncStats(ctx); err != nil && ctx.Err() == nil {
			rt.logf("cluster: stats sync: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (rt *Router) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}
