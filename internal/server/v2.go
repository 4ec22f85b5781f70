// v2: the typed query surface. /v2 speaks typed requests (pagination,
// source and score filters, explanation toggles), executes batches
// under the engine's bounded parallelism, and shares one structured
// error envelope:
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with machine-readable codes (unknown_concept errors carry
// nearest-concept suggestions in details). The /v1 graph reads keep
// their flat error shape (see DESIGN.md §5).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ncexplorer"
)

// statusClientClosedRequest is nginx's conventional status for a
// request abandoned by the client; Go has no stdlib constant for it.
const statusClientClosedRequest = 499

// apiError is a structured v2 failure on its way to the error
// envelope.
type apiError struct {
	status  int
	code    ncexplorer.ErrorCode
	message string
	details map[string]any
}

func (e *apiError) Error() string { return e.message }

func invalidArgument(format string, args ...any) *apiError {
	return &apiError{
		status:  http.StatusBadRequest,
		code:    ncexplorer.CodeInvalidArgument,
		message: fmt.Sprintf(format, args...),
	}
}

// statusForCode maps facade error codes to HTTP statuses.
func statusForCode(code ncexplorer.ErrorCode) int {
	switch code {
	case ncexplorer.CodeInvalidArgument, ncexplorer.CodeUnknownConcept, ncexplorer.CodeUnknownEntity:
		return http.StatusBadRequest
	case ncexplorer.CodeNotFound:
		return http.StatusNotFound
	case ncexplorer.CodePermissionDenied:
		return http.StatusForbidden
	case ncexplorer.CodeSessionExpired:
		return http.StatusGone
	case ncexplorer.CodeNoHistory:
		return http.StatusConflict
	case ncexplorer.CodeLimitExceeded:
		return http.StatusTooManyRequests
	case ncexplorer.CodeCancelled:
		return statusClientClosedRequest
	case ncexplorer.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case ncexplorer.CodeShardUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// apiErrorFrom converts any error into a structured apiError: an
// apiError passes through, typed facade errors keep their code and
// details, everything else becomes an internal error.
func apiErrorFrom(err error) *apiError {
	if e, ok := err.(*apiError); ok {
		return e
	}
	if e, ok := ncexplorer.AsError(err); ok {
		return &apiError{status: statusForCode(e.Code), code: e.Code, message: e.Message, details: e.Details}
	}
	return &apiError{status: http.StatusInternalServerError, code: ncexplorer.CodeInternal, message: err.Error()}
}

// errorEnvelope is the v2 error body shared by every /v2 endpoint.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    ncexplorer.ErrorCode `json:"code"`
	Message string               `json:"message"`
	Details map[string]any       `json:"details,omitempty"`
}

// marshalAPIError renders the envelope (for batch items the envelope
// is embedded without a status line).
func marshalAPIError(e *apiError) []byte {
	body, err := json.Marshal(errorEnvelope{Error: errorBody{Code: e.code, Message: e.message, Details: e.details}})
	if err != nil {
		// Details can in principle hold unmarshalable values; degrade
		// to a detail-less envelope rather than failing the error path.
		body, _ = json.Marshal(errorEnvelope{Error: errorBody{Code: e.code, Message: e.message}})
	}
	return body
}

// decodeV2 parses a JSON body into v, mapping failures to the
// structured envelope. An entirely empty body decodes as the
// all-defaults request — the session navigation endpoints make every
// field optional, so a body-free POST is a documented call shape
// (truncated JSON still fails: that surfaces as ErrUnexpectedEOF, not
// EOF).
func decodeV2(w http.ResponseWriter, r *http.Request, v any) *apiError {
	return decodeV2Limit(w, r, v, maxBodyBytes)
}

// decodeV2Limit is decodeV2 with a caller-chosen body cap (the ingest
// endpoint accepts much larger payloads than the query endpoints).
func decodeV2Limit(w http.ResponseWriter, r *http.Request, v any, limit int64) *apiError {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{
				status:  http.StatusRequestEntityTooLarge,
				code:    ncexplorer.CodeInvalidArgument,
				message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return invalidArgument("malformed request body: %v", err)
	}
	return nil
}

// doCached runs a fill through the singleflight result cache under
// the caller's context. Coalescing has a sharp edge here: a waiter
// piggybacks on whichever request filled first, and if *that* client
// disconnects mid-query its context error propagates to every waiter.
// So on a cancellation-shaped error we retry while our own context is
// still live — the poisoned in-flight call has already completed, and
// the retry either hits a healthy fill or becomes the filler with a
// live context. Bounded, since each retry can only lose the race to
// another dying request.
func (s *Server) doCached(ctx context.Context, key string, fill func() (any, error)) (any, bool, error) {
	key = s.epochKey(key)
	const maxRetries = 2
	for attempt := 0; ; attempt++ {
		v, hit, err := s.cache.Do(key, fill)
		if err != nil && attempt < maxRetries && ctx.Err() == nil {
			if e, ok := ncexplorer.AsError(err); ok &&
				(e.Code == ncexplorer.CodeCancelled || e.Code == ncexplorer.CodeDeadlineExceeded) {
				continue
			}
		}
		return v, hit, err
	}
}

// exec runs a normalized query through the result cache: on a miss the
// facade executes it and the marshaled body is retained, so every
// later hit is byte-identical. Keys are epoch-scoped (see epochKey)
// and prefixed by scope — the internal scatter endpoint, whose k is
// not normalized, caches under its own.
func (s *Server) exec(ctx context.Context, scope, op string, q QueryRequest) ([]byte, bool, error) {
	var key string
	var run func() (any, error)
	if op == "rollup" {
		req := q.RollUp()
		key, run = req.Key(), func() (any, error) { return s.explorer().RollUpQuery(ctx, req) }
	} else {
		req := q.DrillDown()
		key, run = req.Key(), func() (any, error) { return s.explorer().DrillDownQuery(ctx, req) }
	}
	v, hit, err := s.doCached(ctx, scope+key, func() (any, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	if err != nil {
		return nil, false, err
	}
	return v.([]byte), hit, nil
}

// execHTTP is the Server's QueryExec: exec, with the cache outcome
// reported in the X-Cache header.
func (s *Server) execHTTP(w http.ResponseWriter, r *http.Request, op string, q QueryRequest) ([]byte, error) {
	body, hit, err := s.exec(r.Context(), "", op, q)
	if err == nil {
		if hit {
			w.Header().Set("X-Cache", "HIT")
		} else {
			w.Header().Set("X-Cache", "MISS")
		}
	}
	return body, err
}

// query normalizes and executes one query for batch items and session
// navigation — the path /v2/query/* takes, so their payloads are
// byte-identical to the single-call endpoint's.
func (s *Server) query(ctx context.Context, op string, q QueryRequest) ([]byte, error) {
	if err := s.normalize(op, &q); err != nil {
		return nil, err
	}
	body, _, err := s.exec(ctx, "", op, q)
	return body, err
}

// batchRequest is the /v2/batch body: N independent typed queries.
type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

// batchQuery is one batch entry: an op plus the typed request fields.
type batchQuery struct {
	Op string `json:"op"`
	QueryRequest
}

// batchResponse returns one result slot per query, in request order.
// A slot holds either the op's result object (byte-identical to the
// single-call endpoint) or an error envelope; one bad query never
// fails its siblings.
type batchResponse struct {
	Count   int               `json:"count"`
	Results []json.RawMessage `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if aerr := decodeV2(w, r, &req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if len(req.Queries) == 0 {
		s.writeAPIError(w, invalidArgument("empty batch"))
		return
	}
	if len(req.Queries) > s.opts.MaxBatch {
		s.writeAPIError(w, invalidArgument("batch of %d queries exceeds the maximum of %d",
			len(req.Queries), s.opts.MaxBatch))
		return
	}
	// Fan out under the engine's worker budget: batch-level parallelism
	// composes with the engine's own intra-query helpers through the
	// engine-wide semaphore, so a big batch cannot oversubscribe the
	// scheduler.
	results := make([]json.RawMessage, len(req.Queries))
	sem := make(chan struct{}, s.explorer().Parallelism())
	var wg sync.WaitGroup
	for i, q := range req.Queries {
		wg.Add(1)
		go func(i int, q batchQuery) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			body, err := s.query(r.Context(), q.Op, q.QueryRequest)
			if err != nil {
				// Count item-level failures like whole-request ones so
				// /statsz error monitoring sees them.
				s.errors.Add(1)
				body = marshalAPIError(apiErrorFrom(err))
			}
			results[i] = body
		}(i, q)
	}
	wg.Wait()
	s.WriteJSON(w, http.StatusOK, batchResponse{Count: len(results), Results: results})
}
