package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ncexplorer"
	"ncexplorer/internal/kg"
)

// worldSeed fixes the knowledge graph and the 1,760-article seed corpus
// every deployment starts from; --seed varies only what the benchmark
// feeds the program (articles and requests).
const worldSeed = 42

// clockStart is where backfill articles begin publishing: the day after
// the seed corpus ends (it runs 2023-09-04 to mid-October), so the
// fixture's newest articles are the ones ingested last — what a
// "recent window" query should find.
var clockStart = time.Date(2023, 10, 16, 0, 0, 0, 0, time.UTC)

// articleSource hands out deterministic article batches. Every batch
// continues one publication clock, so a later batch is always newer
// than an earlier one, the way a live feed is.
type articleSource struct {
	x     *ncexplorer.Explorer
	rng   *rand.Rand
	seed  uint64
	next  uint64
	clock time.Time
}

func newArticleSource(x *ncexplorer.Explorer, seed uint64) *articleSource {
	return &articleSource{
		x:     x,
		rng:   rand.New(rand.NewSource(int64(seed)*7919 + 1)),
		seed:  seed,
		clock: clockStart,
	}
}

// batch returns the next n articles and their /v2/ingest body.
func (a *articleSource) batch(n int) ([]ncexplorer.IngestArticle, []byte, error) {
	arts, err := a.x.SampleArticles(a.seed*1_000_003+a.next+1, n)
	if err != nil {
		return nil, nil, err
	}
	a.next++
	for i := range arts {
		a.clock = a.clock.Add(time.Duration(60+a.rng.Intn(3541)) * time.Second)
		arts[i].PublishedAt = a.clock.Format(time.RFC3339)
	}
	body, err := json.Marshal(map[string]any{"articles": arts})
	return arts, body, err
}

// populations are the concept sets requests draw from, computed from
// the fixture: all concepts with at least one matching article, by
// match count descending (name ascending on ties), and the broadest of
// them.
type populations struct {
	all   []string
	broad []string
}

// broadSize bounds the broad population (the ISSUE's broad200).
const broadSize = 200

func conceptPopulations(x *ncexplorer.Explorer) (populations, error) {
	type ct struct {
		name  string
		total int
	}
	var cts []ct
	var names []string
	x.Graph().Concepts(func(c kg.NodeID) bool {
		names = append(names, x.Graph().Name(c))
		return true
	})
	for _, name := range names {
		res, err := x.RollUpQuery(context.Background(), ncexplorer.RollUpRequest{Concepts: []string{name}, K: 1})
		if err != nil {
			return populations{}, fmt.Errorf("population roll-up %q: %w", name, err)
		}
		if res.Total > 0 {
			cts = append(cts, ct{name, res.Total})
		}
	}
	sort.Slice(cts, func(i, j int) bool {
		if cts[i].total != cts[j].total {
			return cts[i].total > cts[j].total
		}
		return cts[i].name < cts[j].name
	})
	p := populations{}
	for _, c := range cts {
		p.all = append(p.all, c.name)
	}
	p.broad = p.all
	if len(p.broad) > broadSize {
		p.broad = p.broad[:broadSize]
	}
	if len(p.broad) < 8 {
		return p, fmt.Errorf("only %d concepts match any article; fixture too small", len(p.broad))
	}
	return p, nil
}

// step is one HTTP call. A path may contain "{id}", replaced by the
// session the op's first step created. roll or drill, when set, is the
// same query in the facade's terms, for the oracle and the traced run.
type step struct {
	method string
	path   string
	body   []byte
	roll   *ncexplorer.RollUpRequest
	drill  *ncexplorer.DrillDownRequest
}

// op is one unit of the request mix: a single stateless query, or the
// five dependent calls of a session navigation.
type op struct {
	kind  string
	steps []step
}

func (o *op) stateless() bool { return len(o.steps) == 1 }

func rollStep(r ncexplorer.RollUpRequest) step {
	body, _ := json.Marshal(r)
	return step{method: "POST", path: "/v2/query/rollup", body: body, roll: &r}
}

func drillStep(d ncexplorer.DrillDownRequest) step {
	body, _ := json.Marshal(d)
	return step{method: "POST", path: "/v2/query/drilldown", body: body, drill: &d}
}

// stream yields the workload's ops in a fixed order: the same seed and
// populations give the same sequence no matter how many workers pull.
type stream interface {
	next() *op
}

// hotSize is the number of distinct requests in dashboard_hot's stream
// (which live_feed's reader replays too); it fits the server's
// 2,048-entry result cache eight times over.
const hotSize = 256

// hotStream replays a small fixed set of requests with Zipf(1.1)
// popularity: after warm-up every answer is a result-cache hit.
type hotStream struct {
	mu   sync.Mutex
	ops  []*op
	zipf *rand.Zipf
}

func newHotStream(seed uint64, p populations) *hotStream {
	rng := rand.New(rand.NewSource(int64(seed)*104729 + 2))
	pick := rand.NewZipf(rng, 1.1, 1, uint64(len(p.all)-1))
	seen := make(map[string]bool)
	var ops []*op
	for len(ops) < hotSize && len(seen) < len(p.all) {
		c := p.all[pick.Uint64()]
		if seen[c] {
			continue
		}
		seen[c] = true
		ops = append(ops,
			&op{kind: "rollup", steps: []step{rollStep(ncexplorer.RollUpRequest{Concepts: []string{c}, K: 10})}},
			&op{kind: "drilldown", steps: []step{drillStep(ncexplorer.DrillDownRequest{Concepts: []string{c}, K: 10})}})
	}
	// Popularity rank is independent of how broad a concept is.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return &hotStream{ops: ops, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(ops)-1))}
}

func (s *hotStream) next() *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops[s.zipf.Uint64()]
}

// deepStream never repeats a request: each kind walks its own counter
// through (concept, offset, k or window edge) combinations, so no two
// requests share a result-cache key and the engine does the work every
// time.
type deepStream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	p        populations
	count    map[string]int
	spanFrom time.Time
	spanTo   time.Time
	// stateless drops session navigation and folds its share into the
	// other kinds (the router serves only the stateless endpoints).
	stateless bool
}

func newDeepStream(seed uint64, p populations, spanFrom, spanTo time.Time, stateless bool) *deepStream {
	return &deepStream{
		rng:       rand.New(rand.NewSource(int64(seed)*1299709 + 3)),
		p:         p,
		count:     make(map[string]int),
		spanFrom:  spanFrom,
		spanTo:    spanTo,
		stateless: stateless,
	}
}

// deepMix is explore_deep's request mix, as cumulative percentages.
var deepMix = []struct {
	kind string
	upTo int
}{
	{"drilldown", 40}, {"rollup2", 60}, {"window", 75}, {"explain", 90}, {"session", 100},
}

func (s *deepStream) next() *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	limit := 100
	if s.stateless {
		limit = 90
	}
	r := s.rng.Intn(limit)
	kind := ""
	for _, m := range deepMix {
		if r < m.upTo {
			kind = m.kind
			break
		}
	}
	i := s.count[kind]
	s.count[kind]++
	nb := len(s.p.broad)
	c := s.p.broad[i%nb]
	turn := i / nb // how many times this kind has been round the broad set
	switch kind {
	case "drilldown":
		return &op{kind: kind, steps: []step{drillStep(ncexplorer.DrillDownRequest{
			Concepts: []string{c}, K: 10 + turn/100, Offset: turn % 100})}}
	case "rollup2":
		// Pair one of the broadest concepts with one of the others, so
		// most pairs intersect and no pair occurs in both orders.
		top := max(1, nb/10)
		rest := nb - top
		return &op{kind: kind, steps: []step{rollStep(ncexplorer.RollUpRequest{
			Concepts: []string{s.p.broad[i%top], s.p.broad[top+(i/top)%rest]},
			K:        10, Offset: i / (top * rest)})}}
	case "window":
		return &op{kind: kind, steps: []step{rollStep(ncexplorer.RollUpRequest{
			Concepts: []string{c}, K: 10, GroupBy: "day", Time: s.recentWindow(turn)})}}
	case "explain":
		return &op{kind: kind, steps: []step{rollStep(ncexplorer.RollUpRequest{
			Concepts: []string{c}, K: 50, Offset: turn, Explain: true})}}
	default:
		return s.sessionOp(c, turn)
	}
}

// recentWindow is the most recent 10–30 % of the publication span; n
// moves the opening edge so each call has its own window.
func (s *deepStream) recentWindow(n int) *ncexplorer.TimeRange {
	span := s.spanTo.Sub(s.spanFrom)
	frac := 0.10 + 0.20*float64(n%1000)/1000
	start := s.spanTo.Add(-time.Duration(frac * float64(span))).Add(-time.Duration(n/1000) * time.Second)
	return &ncexplorer.TimeRange{Start: start.UTC().Truncate(time.Second).Format(time.RFC3339)}
}

// sessionK is the page size of session queries; it differs from the
// stateless kinds' so a session step never shares their cache keys.
const sessionK = 9

func (s *deepStream) sessionOp(c string, n int) *op {
	jsonBody := func(v any) []byte {
		b, _ := json.Marshal(v)
		return b
	}
	return &op{kind: "session", steps: []step{
		{method: "POST", path: "/v2/sessions", body: jsonBody(map[string]any{"concepts": []string{c}})},
		{method: "POST", path: "/v2/sessions/{id}/rollup", body: jsonBody(map[string]any{"k": sessionK, "offset": n})},
		{method: "POST", path: "/v2/sessions/{id}/drilldown", body: jsonBody(map[string]any{"k": sessionK, "offset": n})},
		{method: "POST", path: "/v2/sessions/{id}/zoom", body: jsonBody(map[string]any{"time_range": s.recentWindow(n)})},
		{method: "POST", path: "/v2/sessions/{id}/back"},
	}}
}
