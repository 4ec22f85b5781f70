package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ncexplorer"
)

// Watchlists over HTTP: the standing-query surface.
//
//	POST   /v2/watchlists              register {"name", "concepts", "sources",
//	                                   "min_score", "webhook_url"} → watchlist
//	GET    /v2/watchlists              list registered watchlists
//	GET    /v2/watchlists/{id}         one watchlist
//	DELETE /v2/watchlists/{id}         remove (ends streams and deliveries)
//	GET    /v2/watchlists/{id}/events  SSE alert stream; ?after=<seq> replays
//	                                   retained alerts past the cursor before
//	                                   going live, in order, no gap or duplicate
//
// The SSE stream emits one event per alert:
//
//	id: <seq>
//	event: alert
//	data: <alert JSON — same envelope the webhook POSTs>
//
// The id line carries the per-watchlist sequence, so a reconnecting
// client passes its last seen id as ?after= and receives exactly what
// it missed (within the retention window; a gap past the window is
// visible as a jump in sequence numbers). Lagging clients are
// disconnected rather than slowing ingestion; server shutdown ends
// streams first so connected clients release promptly.

// watchlistsResponse is the GET /v2/watchlists payload.
type watchlistsResponse struct {
	Count      int                    `json:"count"`
	Watchlists []ncexplorer.Watchlist `json:"watchlists"`
}

func (s *Server) handleWatchlistCreate(w http.ResponseWriter, r *http.Request) {
	var spec ncexplorer.WatchlistSpec
	if aerr := decodeV2(w, r, &spec); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	wl, err := s.explorer().RegisterWatchlist(spec)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	s.WriteJSON(w, http.StatusCreated, wl)
}

func (s *Server) handleWatchlistList(w http.ResponseWriter, r *http.Request) {
	lists := s.explorer().ListWatchlists()
	if lists == nil {
		lists = []ncexplorer.Watchlist{}
	}
	s.WriteJSON(w, http.StatusOK, watchlistsResponse{Count: len(lists), Watchlists: lists})
}

func (s *Server) handleWatchlistGet(w http.ResponseWriter, r *http.Request) {
	wl, err := s.explorer().GetWatchlist(r.PathValue("id"))
	if err != nil {
		s.WriteError(w, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, wl)
}

func (s *Server) handleWatchlistDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.explorer().RemoveWatchlist(r.PathValue("id")); err != nil {
		s.WriteError(w, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

// handleWatchlistEvents serves the SSE alert stream. The subscription
// replays retained alerts past ?after= and then delivers live alerts;
// both arrive on one channel already in order, so the handler is a
// plain pump loop until the client disconnects, the watchlist is
// removed, the subscriber lags out, or the server drains.
func (s *Server) handleWatchlistEvents(w http.ResponseWriter, r *http.Request) {
	after := uint64(0)
	if raw := r.URL.Query().Get("after"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeAPIError(w, invalidArgument("invalid after %q: want a non-negative integer", raw))
			return
		}
		after = v
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeAPIError(w, &apiError{
			status:  http.StatusInternalServerError,
			code:    ncexplorer.CodeInternal,
			message: "response writer does not support streaming",
		})
		return
	}
	sub, err := s.explorer().WatchSubscribe(r.PathValue("id"), after)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	defer sub.Cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.streamStop:
			return
		case a, ok := <-sub.C:
			if !ok {
				// Watchlist removed, subscriber lagged out, or registry gone:
				// end the stream; the client reconnects with its last id.
				return
			}
			body, err := json.Marshal(a)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: alert\ndata: %s\n\n", a.Seq, body); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// StopStreams ends every live SSE stream. Graceful shutdown calls it
// before http.Server.Shutdown, which waits for handlers to return —
// without this, open streams would hold Shutdown until its deadline.
// Safe to call more than once.
func (s *Server) StopStreams() {
	s.stopStreamsOnce.Do(func() { close(s.streamStop) })
}
