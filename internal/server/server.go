// Package server exposes an Explorer over HTTP/JSON — the serving
// subsystem that turns the in-process NCExplorer facade into the
// interactive, programmable API the paper's analysts (and downstream
// risk pipelines) hit in real time.
//
// Endpoints:
//
//	POST /v2/query/rollup         typed roll-up: pagination (offset),
//	                              source/min-score/time filters,
//	                              group_by, explain toggle
//	POST /v2/query/drilldown      typed drill-down
//	POST /v2/batch                N typed queries in one POST, executed
//	                              under the engine's bounded parallelism
//	POST /v2/ingest               live ingestion: index a batch of raw
//	                              articles and publish the next index
//	                              generation (requires EnableIngest;
//	                              see ingest.go)
//	     /v2/sessions...          exploration sessions: CRUD plus
//	                              rollup/drilldown/zoom/back navigation
//	                              that mutates the current concept
//	                              pattern (see sessions.go)
//	     /v2/watchlists...        standing queries: register concept
//	                              patterns evaluated at ingest time,
//	                              with SSE alert streams and webhook
//	                              delivery (see watch.go)
//	GET  /v1/concepts/{entity}    roll-up options for an entity
//	GET  /v1/broader/{concept}    the next roll-up level
//	GET  /v1/keywords/{concept}   amplified keyword list (?n=10)
//	GET  /v1/topics               the paper's six evaluation queries
//	GET  /healthz                 liveness + world summary
//	GET  /statsz                  index (incl. generation, per-segment
//	                              doc counts, ingest throughput), cache,
//	                              session, and request counters;
//	                              index.engine_cache reports the
//	                              engine's sharded memo caches and
//	                              index.watch the standing-query
//	                              counters
//
// The query endpoints and /v1/topics are the front door (frontdoor.go)
// a cluster router mounts too; a Server executes behind it through a
// sharded LRU cache (internal/qcache) keyed by the canonical request
// and scoped to the explorer's query epoch: the marshaled JSON body
// itself is cached, so a hit is byte-identical to the miss that
// populated it, and concurrent identical queries are coalesced into
// one engine call. When an ingest (or a cache reset) changes what
// queries return, the epoch advances and every retained body becomes
// unreachable by key — generation-tagged invalidation instead of a
// stop-the-world flush. The X-Cache response header reports HIT or
// MISS per request.
//
// Errors are JSON too. The /v1 graph reads keep their original flat
// shape {"error": "..."}; every /v2 route shares the structured
// envelope {"error": {"code", "message", "details"}} with typed codes
// (unknown_concept errors carry nearest-concept suggestions in
// details.suggestions). See DESIGN.md §5 for the versioning contract.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncexplorer"
	"ncexplorer/internal/qcache"
	"ncexplorer/internal/session"
)

// Options configures a Server. The zero value enables a 8-shard,
// 256-entries-per-shard cache, k clamped to 100, a 64-query batch
// cap, and 30-minute exploration sessions.
type Options struct {
	// CacheShards is the shard count of the result cache (default 8).
	CacheShards int
	// CacheCapacity is the per-shard entry capacity (default 256).
	// Negative disables result caching; singleflight coalescing of
	// concurrent identical queries still applies.
	CacheCapacity int
	// MaxK caps the k accepted by query endpoints (default 100).
	MaxK int
	// MaxBatch caps the queries accepted per /v2/batch call
	// (default 64).
	MaxBatch int
	// SessionTTL is how long an exploration session survives without
	// being touched (default 30m).
	SessionTTL time.Duration
	// MaxSessions bounds live exploration sessions; creation beyond it
	// evicts the least-recently-used session (default 1024).
	MaxSessions int
	// EnableIngest exposes POST /v2/ingest. Off by default: ingestion
	// is a write path and deployments must opt in.
	EnableIngest bool
	// MaxIngestBatch caps the articles accepted per /v2/ingest call
	// (default 1024).
	MaxIngestBatch int
	// Clock supplies the session store's time source (tests inject a
	// fake one; default time.Now).
	Clock func() time.Time
	// ClusterDataDir, when set, exposes the segment-shipping endpoints
	// (GET /internal/manifest, GET /internal/segments/{name}) serving
	// that snapshot directory — a leader publishing its store, or a
	// replica daisy-chaining the one it fetched.
	ClusterDataDir string
	// EnableCluster exposes the internal scatter/gather surface: the
	// shard statistics exchange (GET /internal/stats, POST
	// /internal/remote-stats) and the exact-merge query endpoints
	// (POST /internal/query/...). Off by default; these endpoints are
	// trusted-peer APIs, not public ones.
	EnableCluster bool
}

func (o Options) withDefaults() Options {
	if o.CacheShards == 0 {
		o.CacheShards = 8
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 256
	}
	if o.MaxK <= 0 {
		o.MaxK = 100
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxIngestBatch <= 0 {
		o.MaxIngestBatch = 1024
	}
	return o
}

// Server is the HTTP serving layer over an Explorer: the query front
// door it shares with the cluster router, executing through the result
// cache and the facade, plus the server-only routes. Safe for
// concurrent use; construct with New.
type Server struct {
	*Front
	// x is the serving explorer, behind an atomic pointer so a replica
	// can swap in a freshly caught-up generation while requests are in
	// flight. It is nil on a replica that has not completed its first
	// catch-up; the readiness gate answers 503 until then.
	x        atomic.Pointer[ncexplorer.Explorer]
	cache    *qcache.Cache
	sessions *session.Store
	opts     Options
	started  time.Time

	// swapSeq counts explorer swaps; epochKey folds it in so result-cache
	// keys from one explorer instance can never collide with another's
	// (two instances may report equal query epochs).
	swapSeq atomic.Uint64
	// syncing holds the replica catch-up state the readiness gate and
	// /healthz report; nil means serving normally.
	syncing atomic.Pointer[syncState]
	// clusterInfo, when set, supplies the /statsz cluster section.
	clusterInfo atomic.Pointer[func() *ClusterInfo]

	// streamStop, when closed, ends every live SSE stream; graceful
	// shutdown closes it (StopStreams) before http.Server.Shutdown so
	// open streams don't hold the drain until its deadline.
	streamStop      chan struct{}
	stopStreamsOnce sync.Once
}

// syncState is a replica's catch-up position: the generation it is
// serving (0 if none yet) and the leader generation it is chasing.
type syncState struct {
	Generation uint64
	Target     uint64
}

// explorer returns the currently serving explorer; nil while a replica
// has not completed its first catch-up (the readiness gate keeps such
// requests from reaching handlers).
func (s *Server) explorer() *ncexplorer.Explorer { return s.x.Load() }

// SetExplorer atomically swaps the serving explorer — how a replica
// publishes a freshly opened generation while requests are in flight.
// In-flight requests finish against the explorer they loaded; new
// requests see the new one. The swap sequence feeds cache keys, so
// bodies cached against the old instance become unreachable.
func (s *Server) SetExplorer(x *ncexplorer.Explorer) {
	s.swapSeq.Add(1)
	s.x.Store(x)
}

// SetSyncState publishes a replica's catch-up position. While syncing
// is true every endpoint answers 503 with a
// {"state":"syncing","generation":N,"target":M} body (routers use this
// to exclude the replica); syncing=false restores normal serving.
func (s *Server) SetSyncState(generation, target uint64, syncing bool) {
	if syncing {
		s.syncing.Store(&syncState{Generation: generation, Target: target})
	} else {
		s.syncing.Store(nil)
	}
}

// ClusterInfo is the /statsz cluster section: the node's role and
// shard position, its replication lag, and segment-shipping counters.
type ClusterInfo struct {
	Role             string `json:"role"`
	Shard            int    `json:"shard"`
	ShardCount       int    `json:"shard_count"`
	Generation       uint64 `json:"generation"`
	TargetGeneration uint64 `json:"target_generation,omitempty"`
	GenerationLag    int64  `json:"generation_lag"`
	ManifestPolls    int64  `json:"manifest_polls,omitempty"`
	SegmentsFetched  int64  `json:"segments_fetched,omitempty"`
	SegmentsReused   int64  `json:"segments_reused,omitempty"`
	BytesShipped     int64  `json:"bytes_shipped,omitempty"`
}

// SetClusterInfo installs the provider behind /statsz's cluster
// section (nil provider or nil result omits the section).
func (s *Server) SetClusterInfo(provider func() *ClusterInfo) {
	if provider != nil {
		s.clusterInfo.Store(&provider)
	}
}

// New wires the handlers, cache, and session store around an indexed
// Explorer. x may be nil for a replica booting ahead of its first
// catch-up: the readiness gate answers 503 until SetExplorer installs
// one.
func New(x *ncexplorer.Explorer, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		cache: qcache.New(opts.CacheShards, opts.CacheCapacity),
		sessions: session.NewStore(session.Options{
			TTL:         opts.SessionTTL,
			MaxSessions: opts.MaxSessions,
			Now:         opts.Clock,
		}),
		opts:       opts,
		started:    time.Now(),
		streamStop: make(chan struct{}),
	}
	if x != nil {
		s.x.Store(x)
	}
	s.Front = NewFront(opts.MaxK, s.execHTTP, func() [][2]string { return s.explorer().EvaluationTopics() })
	s.registerInternal()
	s.Handle("GET /v1/concepts/{entity}", "concepts", s.handleConcepts)
	s.Handle("GET /v1/broader/{concept}", "broader", s.handleBroader)
	s.Handle("GET /v1/keywords/{concept}", "keywords", s.handleKeywords)
	s.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.Handle("GET /statsz", "statsz", s.handleStatsz)

	// Batch, ingest, exploration sessions (see v2.go, ingest.go and
	// sessions.go). Mount order fixes each path's Allow list.
	s.Handle("POST /v2/batch", "v2batch", s.handleBatch)
	s.Handle("POST /v2/ingest", "v2ingest", s.handleIngest)
	s.Handle("GET /v2/sessions", "v2sessions", s.handleSessionList)
	s.Handle("POST /v2/sessions", "v2sessions", s.handleSessionCreate)
	s.Handle("GET /v2/sessions/{id}", "v2sessions", s.handleSessionGet)
	s.Handle("DELETE /v2/sessions/{id}", "v2sessions", s.handleSessionDelete)
	s.Handle("POST /v2/sessions/{id}/rollup", "v2sessions", s.handleSessionRollUp)
	s.Handle("POST /v2/sessions/{id}/drilldown", "v2sessions", s.handleSessionDrillDown)
	s.Handle("POST /v2/sessions/{id}/zoom", "v2sessions", s.handleSessionZoom)
	s.Handle("POST /v2/sessions/{id}/back", "v2sessions", s.handleSessionBack)

	// Watchlists: standing queries with SSE alert streams (see watch.go).
	s.Handle("GET /v2/watchlists", "v2watchlists", s.handleWatchlistList)
	s.Handle("POST /v2/watchlists", "v2watchlists", s.handleWatchlistCreate)
	s.Handle("GET /v2/watchlists/{id}", "v2watchlists", s.handleWatchlistGet)
	s.Handle("DELETE /v2/watchlists/{id}", "v2watchlists", s.handleWatchlistDelete)
	s.Handle("GET /v2/watchlists/{id}/events", "v2watchlists", s.handleWatchlistEvents)
	return s
}

// Handler returns the root http.Handler: the mux behind the readiness
// gate. A server with no explorer yet (replica pre-first-catch-up) or
// one explicitly marked syncing answers 503 with the syncing body on
// every route — /healthz included, which is how routers and load
// balancers exclude the node — except the /internal/ shipping and
// stats surface, which must stay reachable so peers can keep feeding
// the node the very data it is syncing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/internal/") {
			st := s.syncing.Load()
			if st == nil && s.explorer() == nil {
				st = &syncState{}
			}
			if st != nil {
				s.writeSyncing(w, st)
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// writeSyncing answers a request refused by the readiness gate.
func (s *Server) writeSyncing(w http.ResponseWriter, st *syncState) {
	s.total.Add(1)
	body, _ := json.Marshal(map[string]any{
		"state":      "syncing",
		"generation": st.Generation,
		"target":     st.Target,
	})
	s.writeBody(w, http.StatusServiceUnavailable, body)
}

// CacheStats exposes the result cache counters (for tests and ops).
func (s *Server) CacheStats() qcache.Stats { return s.cache.Stats() }

// epochKey scopes a result-cache key to the explorer's current query
// epoch. The epoch advances on every ingested batch and every
// ResetQueryCaches call, so entries cached under an older epoch become
// unreachable the instant the index changes — stale bodies are never
// served and nothing is flushed (old entries simply age out of the
// LRU). This is also what keeps the HTTP cache coherent with the
// engine's own memo caches: both invalidate off the same event.
func (s *Server) epochKey(key string) string {
	return "w" + strconv.FormatUint(s.swapSeq.Load(), 36) +
		"e" + strconv.FormatUint(s.explorer().QueryEpoch(), 36) + "|" + key
}

func (s *Server) handleConcepts(w http.ResponseWriter, r *http.Request) {
	entity := r.PathValue("entity")
	concepts, err := s.explorer().ConceptsForEntity(entity)
	if err != nil {
		s.writeFlatError(w, http.StatusBadRequest, err)
		return
	}
	if concepts == nil {
		concepts = []string{}
	}
	s.WriteJSON(w, http.StatusOK, map[string]any{"entity": entity, "concepts": concepts})
}

func (s *Server) handleBroader(w http.ResponseWriter, r *http.Request) {
	concept := r.PathValue("concept")
	broader, err := s.explorer().BroaderConcepts(concept)
	if err != nil {
		s.writeFlatError(w, http.StatusBadRequest, err)
		return
	}
	if broader == nil {
		broader = []string{}
	}
	s.WriteJSON(w, http.StatusOK, map[string]any{"concept": concept, "broader": broader})
}

func (s *Server) handleKeywords(w http.ResponseWriter, r *http.Request) {
	concept := r.PathValue("concept")
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			s.writeFlatError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q: want a positive integer", raw))
			return
		}
		n = v
	}
	// Clamp like k on the query endpoints (the default too, in case
	// MaxK < 10): the top-k collector pre-allocates n slots, so an
	// unbounded n is an OOM lever.
	if n > s.opts.MaxK {
		n = s.opts.MaxK
	}
	keywords, err := s.explorer().TopicKeywords(concept, n)
	if err != nil {
		s.writeFlatError(w, http.StatusBadRequest, err)
		return
	}
	if keywords == nil {
		keywords = []string{}
	}
	s.WriteJSON(w, http.StatusOK, map[string]any{"concept": concept, "keywords": keywords})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"articles":       s.explorer().NumArticles(),
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// statszResponse is the /statsz payload: world dimensions, cache
// effectiveness, session occupancy, and request counters.
type statszResponse struct {
	Index    ncexplorer.Stats `json:"index"`
	Cache    qcache.Stats     `json:"cache"`
	Sessions sessionStats     `json:"sessions"`
	Requests RequestStats     `json:"requests"`
	Cluster  *ClusterInfo     `json:"cluster,omitempty"`
	Uptime   float64          `json:"uptime_seconds"`
}

type sessionStats struct {
	Live int `json:"live"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{
		Index:    s.explorer().Stats(),
		Cache:    s.cache.Stats(),
		Sessions: sessionStats{Live: s.sessions.Len()},
		Requests: s.Requests(),
		Uptime:   time.Since(s.started).Seconds(),
	}
	if p := s.clusterInfo.Load(); p != nil {
		resp.Cluster = (*p)()
	}
	s.WriteJSON(w, http.StatusOK, resp)
}
