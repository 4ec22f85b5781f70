// Internal cluster surface: the trusted-peer endpoints behind
// multi-node serving. Two groups, separately gated by Options:
//
// Segment shipping (ClusterDataDir set) — how replicas replicate:
//
//	GET /internal/manifest         the snapshot directory's MANIFEST,
//	                               verbatim
//	GET /internal/segments/{name}  one immutable content-addressed file
//	                               (segment, conn-memo, or watch state),
//	                               with Range support so an interrupted
//	                               fetch resumes
//
// Scatter/gather (EnableCluster) — how a router queries shards and
// keeps their IDF corpus-global:
//
//	GET  /internal/stats                     this shard's term statistics
//	                                         (fold into peers' remote stats)
//	POST /internal/remote-stats              replace the peers' folded-in
//	                                         statistics (leaders only —
//	                                         replicas inherit via shipping)
//	POST /internal/query/rollup              typed roll-up, k uncapped
//	                                         (the router asks for k+offset)
//	POST /internal/query/drilldown-partials  raw drill-down accumulation
//	                                         rows (core.DrillDownPartial)
//	POST /internal/query/diversity           per-concept distinct-entity
//	                                         sets for a shortlist
//	                                         (core.DiversityPartial)
//
// The two drill-down phases answer with a binary partials frame
// (core.PartialsContentType; layout in internal/core/frame.go), not
// JSON: a broad concept's rows run to megabytes, and decoding them as
// JSON was most of a router drill-down. Errors are still the JSON /v2
// envelope.
//
// None of these are public APIs: no k clamping, no canonicalization
// beyond what correctness needs — the router is the trusted caller and
// has already validated at its own edge. The readiness gate exempts
// /internal/ so a syncing node keeps shipping data, but the query
// endpoints below still refuse (503 syncing) while no explorer is
// installed.
package server

import (
	"context"
	"encoding"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"ncexplorer"
	"ncexplorer/internal/core"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/segio"
)

// registerInternal wires whichever internal endpoint groups the
// options enable. Called from New.
func (s *Server) registerInternal() {
	if s.opts.ClusterDataDir != "" {
		s.Handle("GET /internal/manifest", "internal", s.handleManifest)
		s.Handle("GET /internal/segments/{name}", "internal", s.handleSegment)
	}
	if s.opts.EnableCluster {
		s.Handle("GET /internal/stats", "internal", s.handleShardStats)
		s.Handle("POST /internal/remote-stats", "internal", s.handleRemoteStats)
		s.Handle("POST /internal/query/rollup", "internal", s.handleInternalRollUp)
		s.Handle("POST /internal/query/drilldown-partials", "internal", s.internalPartials(drillDownPartialsPhase))
		s.Handle("POST /internal/query/diversity", "internal", s.internalPartials(diversityPhase))
	}
}

// handleManifest serves the snapshot manifest verbatim. Replicas parse
// and validate it client-side (segio.ParseManifest) before trusting
// any reference in it.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	data, err := os.ReadFile(filepath.Join(s.opts.ClusterDataDir, segio.ManifestName))
	if err != nil {
		s.writeAPIError(w, &apiError{
			status: http.StatusNotFound, code: ncexplorer.CodeNotFound,
			message: "no snapshot manifest to ship yet",
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleSegment serves one immutable snapshot file. Only bare
// content-addressed names with the three known extensions are
// accepted; http.ServeFile supplies Range handling, which is what
// makes interrupted segment fetches resumable.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name != filepath.Base(name) || name == "" || strings.Contains(name, "..") ||
		!(strings.HasSuffix(name, segio.SegmentExt) ||
			strings.HasSuffix(name, segio.ConnExt) ||
			strings.HasSuffix(name, segio.WatchExt)) {
		s.writeAPIError(w, &apiError{
			status: http.StatusBadRequest, code: ncexplorer.CodeInvalidArgument,
			message: "invalid snapshot file name",
		})
		return
	}
	http.ServeFile(w, r, filepath.Join(s.opts.ClusterDataDir, name))
}

// internalExplorer fetches the serving explorer for an internal query
// handler, answering 503 syncing when none is installed yet (a replica
// racing its first catch-up).
func (s *Server) internalExplorer(w http.ResponseWriter) (*ncexplorer.Explorer, bool) {
	x := s.explorer()
	if x == nil {
		st := s.syncing.Load()
		if st == nil {
			st = &syncState{}
		}
		s.writeSyncing(w, st)
		return nil, false
	}
	return x, true
}

// ShardStatsResponse is the GET /internal/stats payload: the node's
// shard position and the local term statistics peers fold in.
type ShardStatsResponse struct {
	Shard      int             `json:"shard"`
	ShardCount int             `json:"shard_count"`
	Sharded    bool            `json:"sharded"`
	Generation uint64          `json:"generation"`
	Stats      core.ShardStats `json:"stats"`
}

func (s *Server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	x, ok := s.internalExplorer(w)
	if !ok {
		return
	}
	idx, count, sharded := x.ShardInfo()
	s.WriteJSON(w, http.StatusOK, ShardStatsResponse{
		Shard: idx, ShardCount: count, Sharded: sharded,
		Generation: x.Generation(),
		Stats:      x.Engine().LocalStats(),
	})
}

func (s *Server) handleRemoteStats(w http.ResponseWriter, r *http.Request) {
	x, ok := s.internalExplorer(w)
	if !ok {
		return
	}
	var rs core.ShardStats
	if aerr := decodeV2(w, r, &rs); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if err := x.Engine().SetRemoteStats(rs); err != nil {
		s.writeAPIError(w, &apiError{
			status: http.StatusBadRequest, code: ncexplorer.CodeInvalidArgument,
			message: err.Error(),
		})
		return
	}
	s.WriteJSON(w, http.StatusOK, map[string]any{"generation": x.Generation()})
}

// handleInternalRollUp executes a shard-local roll-up exactly as
// requested — no defaulting, no MaxK clamp: the router already
// normalized at the public edge and asks each shard for its local
// top-(k+offset) page. It runs through the public endpoints' cached
// exec under its own key scope, so repeated fan-outs of a hot query
// are byte-identical cache hits.
func (s *Server) handleInternalRollUp(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.internalExplorer(w); !ok {
		return
	}
	var q QueryRequest
	if aerr := decodeV2(w, r, &q); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	body, _, err := s.exec(r.Context(), "int|", "rollup", q)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	s.writeBody(w, http.StatusOK, body)
}

// PartialsRequest is the body of the two drill-down scatter calls: the
// router sends the canonical concept list (and, for the diversity
// phase, the merged shortlist), and each shard resolves it against the
// shared deterministic graph.
type PartialsRequest struct {
	Concepts  []string              `json:"concepts"`
	Shortlist []kg.NodeID           `json:"shortlist,omitempty"`
	Time      *ncexplorer.TimeRange `json:"time_range,omitempty"`
}

// internalPartials serves one drill-down scatter phase: it resolves the
// request's concepts and time window against the local explorer, runs
// the phase, and answers with the phase's partials frame.
func (s *Server) internalPartials(phase func(ctx context.Context, e *core.Engine, q core.Query, shortlist []kg.NodeID, tr *core.TimeRange) (encoding.BinaryMarshaler, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		x, ok := s.internalExplorer(w)
		if !ok {
			return
		}
		var req PartialsRequest
		if aerr := decodeV2(w, r, &req); aerr != nil {
			s.writeAPIError(w, aerr)
			return
		}
		q, err := x.ResolveConcepts(ncexplorer.CanonicalConcepts(req.Concepts))
		if err != nil {
			s.WriteError(w, err)
			return
		}
		tr, err := ncexplorer.ResolveTimeRange(req.Time)
		if err != nil {
			s.WriteError(w, err)
			return
		}
		part, err := phase(r.Context(), x.Engine(), q, req.Shortlist, tr)
		if err != nil {
			s.WriteError(w, ncexplorer.WrapContextErr(err))
			return
		}
		body, err := part.MarshalBinary()
		if err != nil {
			s.WriteError(w, err)
			return
		}
		w.Header().Set("Content-Type", core.PartialsContentType)
		w.Write(body)
	}
}

func drillDownPartialsPhase(ctx context.Context, e *core.Engine, q core.Query, _ []kg.NodeID, tr *core.TimeRange) (encoding.BinaryMarshaler, error) {
	return e.DrillDownPartials(ctx, q, tr)
}

func diversityPhase(ctx context.Context, e *core.Engine, q core.Query, shortlist []kg.NodeID, tr *core.TimeRange) (encoding.BinaryMarshaler, error) {
	return e.DiversityPartials(ctx, q, shortlist, tr)
}
