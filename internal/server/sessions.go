// Session endpoints: server-side exploration state over
// internal/session. A session holds the analyst's current concept
// pattern and the roll-up/drill-down navigation history; the
// navigation endpoints execute queries through the same cached typed
// path as /v2/query/*, so a session walk-through produces
// byte-identical payloads to the equivalent stateless calls.
//
//	POST   /v2/sessions                    {"concepts": [...]} → create
//	GET    /v2/sessions                    list live sessions
//	GET    /v2/sessions/{id}               snapshot (does not refresh TTL)
//	DELETE /v2/sessions/{id}               drop a session
//	POST   /v2/sessions/{id}/rollup        roll up the current pattern
//	                                       (optional "concepts" replaces it first;
//	                                       optional "time_range" zooms first)
//	POST   /v2/sessions/{id}/drilldown     suggest subtopics for the current
//	                                       pattern (optional "select" then
//	                                       refines the pattern with one;
//	                                       optional "time_range" zooms first)
//	POST   /v2/sessions/{id}/zoom          set or clear the session's time
//	                                       window without querying
//	POST   /v2/sessions/{id}/back          undo the last navigation step
//	                                       (pattern and time window together)
//
// A session's time window, once zoomed, applies to every navigation
// query that does not carry its own time_range; zooms are breadcrumbed
// and undoable exactly like pattern changes.
package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"ncexplorer"
	"ncexplorer/internal/session"
)

// sessionError maps internal/session failures onto the envelope.
func sessionError(err error) *apiError {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return &apiError{status: http.StatusNotFound, code: ncexplorer.CodeNotFound, message: err.Error()}
	case errors.Is(err, session.ErrExpired):
		return &apiError{status: http.StatusGone, code: ncexplorer.CodeSessionExpired, message: err.Error()}
	case errors.Is(err, session.ErrNoHistory):
		return &apiError{status: http.StatusConflict, code: ncexplorer.CodeNoHistory, message: err.Error()}
	case errors.Is(err, session.ErrDuplicateConcept):
		return &apiError{status: http.StatusBadRequest, code: ncexplorer.CodeInvalidArgument, message: err.Error()}
	default:
		return apiErrorFrom(err)
	}
}

// sessionEnvelope wraps a session snapshot, optionally with the query
// result a navigation call produced. Result is the same bytes the
// stateless /v2/query endpoint would return for the session's pattern.
type sessionEnvelope struct {
	Session session.Snapshot `json:"session"`
	Result  json.RawMessage  `json:"result,omitempty"`
}

type createSessionRequest struct {
	Concepts []string `json:"concepts"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if aerr := decodeV2(w, r, &req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	concepts := ncexplorer.CanonicalConcepts(req.Concepts)
	if err := s.explorer().ValidateConcepts(concepts); err != nil {
		s.WriteError(w, err)
		return
	}
	snap := s.sessions.Create(concepts)
	s.WriteJSON(w, http.StatusCreated, sessionEnvelope{Session: snap})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	list := s.sessions.List()
	s.WriteJSON(w, http.StatusOK, map[string]any{"count": len(list), "sessions": list})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.sessions.Peek(r.PathValue("id"))
	if err != nil {
		s.writeAPIError(w, sessionError(err))
		return
	}
	s.WriteJSON(w, http.StatusOK, sessionEnvelope{Session: snap})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Delete(id) {
		s.writeAPIError(w, sessionError(session.ErrNotFound))
		return
	}
	s.WriteJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleSessionRollUp rolls up the session's current pattern. A
// non-empty "concepts" field replaces the pattern first (recorded as a
// navigation step, undoable with back); the other typed request
// fields (k, offset, sources, min_score, explain) apply as on
// /v2/query/rollup.
func (s *Server) handleSessionRollUp(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var q QueryRequest
	if aerr := decodeV2(w, r, &q); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	snap, err := s.sessions.Get(id)
	if err != nil {
		s.writeAPIError(w, sessionError(err))
		return
	}
	// Run the query on the prospective pattern first and commit the
	// pattern replacement only once it succeeds: a request rejected
	// for any reason (unknown concept, bad paging, cancellation) must
	// leave the session exactly as it was.
	newConcepts := ncexplorer.CanonicalConcepts(q.Concepts)
	if len(newConcepts) > 0 {
		if err := s.explorer().ValidateConcepts(newConcepts); err != nil {
			s.WriteError(w, err)
			return
		}
		q.Concepts = newConcepts
	} else {
		q.Concepts = snap.Concepts
	}
	zoom := q.Time != nil
	if zoom {
		if err := ncexplorer.ValidateTimeRange(q.Time); err != nil {
			s.WriteError(w, err)
			return
		}
	} else {
		q.Time = sessionTime(snap.Window)
	}
	body, err := s.query(r.Context(), "rollup", q)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	if len(newConcepts) > 0 {
		if snap, err = s.sessions.Set(id, newConcepts); err != nil {
			s.writeAPIError(w, sessionError(err))
			return
		}
	}
	if zoom {
		if snap, err = s.sessions.Zoom(id, sessionWindow(q.Time)); err != nil {
			s.writeAPIError(w, sessionError(err))
			return
		}
	}
	s.WriteJSON(w, http.StatusOK, sessionEnvelope{Session: snap, Result: body})
}

// sessionTime converts a stored zoom window to the query filter it
// stands for, nil for an un-zoomed session.
func sessionTime(w *session.Window) *ncexplorer.TimeRange {
	if w == nil {
		return nil
	}
	return &ncexplorer.TimeRange{Start: w.Start, End: w.End}
}

// sessionWindow is the inverse of sessionTime.
func sessionWindow(tr *ncexplorer.TimeRange) *session.Window {
	if tr == nil {
		return nil
	}
	return &session.Window{Start: tr.Start, End: tr.End}
}

// sessionDrillDownRequest adds the refinement selector to the typed
// request fields.
type sessionDrillDownRequest struct {
	QueryRequest
	// Select, when non-empty, appends this concept to the session's
	// pattern after the suggestions are computed — the paper's
	// "drill down into a subtopic" move, undoable with back.
	Select string `json:"select"`
}

// handleSessionDrillDown suggests subtopics for the session's current
// pattern. Suggestions are computed on the pattern *before* any
// "select" refinement is applied, mirroring the interactive loop: the
// analyst sees suggestions for where they are, then moves.
func (s *Server) handleSessionDrillDown(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req sessionDrillDownRequest
	if aerr := decodeV2(w, r, &req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	snap, err := s.sessions.Get(id)
	if err != nil {
		s.writeAPIError(w, sessionError(err))
		return
	}
	q := req.QueryRequest
	q.Concepts = snap.Concepts
	zoom := q.Time != nil
	if zoom {
		if err := ncexplorer.ValidateTimeRange(q.Time); err != nil {
			s.WriteError(w, err)
			return
		}
	} else {
		q.Time = sessionTime(snap.Window)
	}
	body, err := s.query(r.Context(), "drilldown", q)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	if zoom {
		if snap, err = s.sessions.Zoom(id, sessionWindow(q.Time)); err != nil {
			s.writeAPIError(w, sessionError(err))
			return
		}
	}
	// Canonicalize the selection before validating and refining, so a
	// whitespace variant of a concept already in the pattern cannot
	// slip past the duplicate-refine guard.
	if sel := ncexplorer.CanonicalConcepts([]string{req.Select}); len(sel) > 0 {
		if err := s.explorer().ValidateConcepts(sel); err != nil {
			s.WriteError(w, err)
			return
		}
		if snap, err = s.sessions.Refine(id, sel[0]); err != nil {
			s.writeAPIError(w, sessionError(err))
			return
		}
	}
	s.WriteJSON(w, http.StatusOK, sessionEnvelope{Session: snap, Result: body})
}

// sessionZoomRequest is the /zoom body: a time window to apply, or an
// absent/empty one to zoom back out.
type sessionZoomRequest struct {
	Time *ncexplorer.TimeRange `json:"time_range"`
}

// handleSessionZoom sets or clears the session's time window without
// running a query — the temporal navigation step of the OLAP loop,
// breadcrumbed and undoable like a pattern change.
func (s *Server) handleSessionZoom(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req sessionZoomRequest
	if aerr := decodeV2(w, r, &req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if err := ncexplorer.ValidateTimeRange(req.Time); err != nil {
		s.WriteError(w, err)
		return
	}
	snap, err := s.sessions.Zoom(id, sessionWindow(req.Time))
	if err != nil {
		s.writeAPIError(w, sessionError(err))
		return
	}
	s.WriteJSON(w, http.StatusOK, sessionEnvelope{Session: snap})
}

func (s *Server) handleSessionBack(w http.ResponseWriter, r *http.Request) {
	snap, err := s.sessions.Back(r.PathValue("id"))
	if err != nil {
		s.writeAPIError(w, sessionError(err))
		return
	}
	s.WriteJSON(w, http.StatusOK, sessionEnvelope{Session: snap})
}
