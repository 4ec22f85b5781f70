package server

import (
	"net/http"

	"ncexplorer"
)

// POST /v2/ingest — the live-ingestion endpoint. Accepts a batch of
// raw articles, runs them through the full indexing pipeline, and
// atomically publishes the next index generation. Queries in flight
// are untouched (they pinned their snapshot); queries arriving after
// the response see the new articles, and the result cache rolls to
// the new epoch by key (see epochKey) rather than by flush.
//
// The endpoint is a write path and must be enabled explicitly
// (Options.EnableIngest / ncserver -ingest); otherwise it answers 403
// permission_denied.

// maxIngestBodyBytes bounds ingest request bodies. Article batches
// are real payloads, so the cap is far above the query endpoints'.
const maxIngestBodyBytes = 32 << 20

// ingestRequest is the /v2/ingest body.
type ingestRequest struct {
	Articles []ncexplorer.IngestArticle `json:"articles"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.opts.EnableIngest {
		s.writeAPIError(w, &apiError{
			status:  http.StatusForbidden,
			code:    ncexplorer.CodePermissionDenied,
			message: "ingestion is not enabled on this server",
		})
		return
	}
	var req ingestRequest
	if aerr := decodeV2Limit(w, r, &req, maxIngestBodyBytes); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if len(req.Articles) == 0 {
		s.writeAPIError(w, invalidArgument("empty ingest batch"))
		return
	}
	if len(req.Articles) > s.opts.MaxIngestBatch {
		s.writeAPIError(w, invalidArgument("batch of %d articles exceeds the maximum of %d",
			len(req.Articles), s.opts.MaxIngestBatch))
		return
	}
	x := s.explorer()
	res, err := x.Ingest(r.Context(), req.Articles)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	// Ingest returns at commit; the checkpoint drains through the
	// group-commit writer. The response still reports durable state:
	// wait for the batch's persist sequence before acknowledging, so a
	// crash after a 200 never loses an acknowledged batch. Concurrent
	// ingests keep pipelining — the next batch analyzes and commits
	// while this handler waits.
	x.WaitDurable(res.PersistSeq)
	s.WriteJSON(w, http.StatusOK, res)
}
