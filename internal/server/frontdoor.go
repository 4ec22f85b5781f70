package server

// The public query front door, written once and mounted by both a
// standalone Server and a cluster router (internal/cluster):
//
//	POST /v2/query/rollup      typed roll-up
//	POST /v2/query/drilldown   typed drill-down
//	GET  /v1/topics            the paper's six evaluation queries
//
// plus the JSON 404/405 fallbacks of every route mounted through
// Handle and the request counters behind /statsz. The front door owns
// the wire type, the decode with its body cap, normalization (k
// defaults to 10 and is clamped to MaxK), the drill-down field
// rejections and the error envelope. The one step that differs is the
// QueryExec: result cache and facade on a server, scatter and merge on
// a router. Everything else a query can get wrong is checked by the
// facade's single validate-and-resolve step, which both executors
// reach, so a request gets the same status and bytes from either.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"ncexplorer"
)

// defaultK is the page size applied when a query body omits k.
const defaultK = 10

// maxBodyBytes bounds query request bodies; concept queries are a few
// names, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// routes enumerated for per-endpoint request counters, in /statsz
// display order; "other" counts unknown paths and wrong-method
// requests.
var routes = []string{
	"concepts", "broader", "keywords", "topics", "v2rollup",
	"v2drilldown", "v2batch", "v2sessions", "v2ingest", "v2watchlists",
	"internal", "healthz", "statsz", "other",
}

// QueryRequest is the wire body of POST /v2/query/{rollup,drilldown},
// of each /v2/batch item, and of the session navigation calls.
type QueryRequest struct {
	Concepts []string              `json:"concepts"`
	K        int                   `json:"k"`
	Offset   int                   `json:"offset"`
	Sources  []string              `json:"sources"`
	MinScore float64               `json:"min_score"`
	Time     *ncexplorer.TimeRange `json:"time_range"`
	GroupBy  string                `json:"group_by"`
	Explain  bool                  `json:"explain"`
}

// RollUp returns the facade request for a roll-up.
func (q QueryRequest) RollUp() ncexplorer.RollUpRequest {
	return ncexplorer.RollUpRequest{
		Concepts: q.Concepts, K: q.K, Offset: q.Offset,
		Sources: q.Sources, MinScore: q.MinScore,
		Time: q.Time, GroupBy: q.GroupBy, Explain: q.Explain,
	}
}

// DrillDown returns the facade request for a drill-down (normalization
// has already rejected Sources and GroupBy).
func (q QueryRequest) DrillDown() ncexplorer.DrillDownRequest {
	return ncexplorer.DrillDownRequest{
		Concepts: q.Concepts, K: q.K, Offset: q.Offset,
		MinScore: q.MinScore, Time: q.Time, Explain: q.Explain,
	}
}

// QueryExec executes one normalized query, op being "rollup" or
// "drilldown", and returns the marshaled result body. An error is
// rendered as the /v2 envelope; typed facade errors keep their code.
// An exec may set response headers on w but writes no body.
type QueryExec func(w http.ResponseWriter, r *http.Request, op string, q QueryRequest) ([]byte, error)

// Front is the HTTP surface a Server and a cluster router share: one
// mux, the query endpoints, the fallbacks, the response writers and
// the request counters. Build it with NewFront and mount every further
// route with Handle before serving.
type Front struct {
	mux  *http.ServeMux
	maxK int
	exec QueryExec
	// allow lists the methods mounted on each path, for the path's
	// wrong-method answer.
	allow map[string]string

	total   atomic.Int64
	errors  atomic.Int64
	byRoute map[string]*atomic.Int64
}

// NewFront builds the front door: the typed query endpoints over exec
// with k capped at maxK, /v1/topics over topics, and the unknown-path
// fallbacks.
func NewFront(maxK int, exec QueryExec, topics func() [][2]string) *Front {
	f := &Front{
		mux:     http.NewServeMux(),
		maxK:    maxK,
		exec:    exec,
		allow:   make(map[string]string),
		byRoute: make(map[string]*atomic.Int64, len(routes)),
	}
	for _, r := range routes {
		f.byRoute[r] = new(atomic.Int64)
	}
	f.Handle("POST /v2/query/rollup", "v2rollup", f.handleQuery("rollup"))
	f.Handle("POST /v2/query/drilldown", "v2drilldown", f.handleQuery("drilldown"))
	f.Handle("GET /v1/topics", "topics", func(w http.ResponseWriter, r *http.Request) {
		type topic struct {
			Concept string `json:"concept"`
			Group   string `json:"group"`
		}
		list := make([]topic, 0, 6)
		for _, t := range topics() {
			list = append(list, topic{Concept: t[0], Group: t[1]})
		}
		f.WriteJSON(w, http.StatusOK, map[string]any{"topics": list})
	})
	// Unknown /v2 paths get the structured envelope; everything else
	// keeps the v1-era flat error shape.
	f.mux.HandleFunc("/v2/", f.counted("other", func(w http.ResponseWriter, r *http.Request) {
		f.writeAPIError(w, &apiError{
			status:  http.StatusNotFound,
			code:    ncexplorer.CodeNotFound,
			message: fmt.Sprintf("unknown path %q", r.URL.Path),
		})
	}))
	f.mux.HandleFunc("/", f.counted("other", func(w http.ResponseWriter, r *http.Request) {
		f.writeFlatError(w, http.StatusNotFound, fmt.Errorf("unknown path %q", r.URL.Path))
	}))
	return f
}

// Handle mounts h at pattern ("METHOD /path"), counted under route
// (one of the /statsz route names). Other methods on the path answer a
// JSON 405 whose Allow lists the methods mounted there, in mount
// order: the /v2 envelope under /v2/, the flat shape elsewhere.
func (f *Front) Handle(pattern, route string, h http.HandlerFunc) {
	method, path, _ := strings.Cut(pattern, " ")
	f.mux.HandleFunc(pattern, f.counted(route, h))
	if allow, ok := f.allow[path]; ok {
		f.allow[path] = allow + ", " + method
		return
	}
	f.allow[path] = method
	f.mux.HandleFunc(path, f.counted("other", func(w http.ResponseWriter, r *http.Request) {
		allow := f.allow[path]
		w.Header().Set("Allow", allow)
		msg := fmt.Sprintf("method %s not allowed (want %s)", r.Method, allow)
		if strings.HasPrefix(path, "/v2/") {
			f.writeAPIError(w, &apiError{status: http.StatusMethodNotAllowed, code: ncexplorer.CodeInvalidArgument, message: msg})
		} else {
			f.writeFlatError(w, http.StatusMethodNotAllowed, errors.New(msg))
		}
	}))
}

// Handler returns the mux with every mounted route.
func (f *Front) Handler() http.Handler { return f.mux }

func (f *Front) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	n := f.byRoute[route]
	return func(w http.ResponseWriter, r *http.Request) {
		f.total.Add(1)
		n.Add(1)
		h(w, r)
	}
}

// handleQuery returns the handler of one typed query endpoint.
func (f *Front) handleQuery(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var q QueryRequest
		if aerr := decodeV2(w, r, &q); aerr != nil {
			f.writeAPIError(w, aerr)
			return
		}
		if err := f.normalize(op, &q); err != nil {
			f.WriteError(w, err)
			return
		}
		body, err := f.exec(w, r, op, q)
		if err != nil {
			f.WriteError(w, err)
			return
		}
		f.writeBody(w, http.StatusOK, body)
	}
}

// normalize applies the HTTP-layer page-size conventions: an absent k
// (0) means the default page size and k is clamped to MaxK. It rejects
// an unknown op and the roll-up-only fields on a drill-down. Everything
// else that can be invalid is left to the facade's one rulebook.
func (f *Front) normalize(op string, q *QueryRequest) error {
	if q.K == 0 {
		q.K = defaultK
	}
	if q.K > f.maxK {
		q.K = f.maxK
	}
	switch {
	case op == "rollup":
		return nil
	case op != "drilldown":
		return invalidArgument("unknown op %q (want \"rollup\" or \"drilldown\")", op)
	case len(q.Sources) > 0:
		return invalidArgument("drilldown does not accept a sources filter")
	case q.GroupBy != "":
		return invalidArgument("drilldown does not accept group_by")
	}
	return nil
}

// WriteJSON writes v as a JSON body with status.
func (f *Front) WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		f.writeFlatError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	f.writeBody(w, status, body)
}

// WriteError writes err as the /v2 envelope with its code's status.
func (f *Front) WriteError(w http.ResponseWriter, err error) {
	f.writeAPIError(w, apiErrorFrom(err))
}

func (f *Front) writeAPIError(w http.ResponseWriter, e *apiError) {
	f.errors.Add(1)
	f.writeBody(w, e.status, marshalAPIError(e))
}

// writeFlatError writes the /v1 error shape {"error": "..."}.
func (f *Front) writeFlatError(w http.ResponseWriter, status int, err error) {
	f.errors.Add(1)
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	f.writeBody(w, status, body)
}

func (f *Front) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// RequestStats is the /statsz request section.
type RequestStats struct {
	Total   int64            `json:"total"`
	Errors  int64            `json:"errors"`
	ByRoute map[string]int64 `json:"by_route"`
}

// Requests reports the request counters.
func (f *Front) Requests() RequestStats {
	by := make(map[string]int64, len(routes))
	for _, route := range routes {
		by[route] = f.byRoute[route].Load()
	}
	return RequestStats{Total: f.total.Load(), Errors: f.errors.Load(), ByRoute: by}
}
