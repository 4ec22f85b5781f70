package ncexplorer

import (
	"cmp"
	"context"
	"math"
	"sort"
	"strings"
	"time"

	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/qcache"
	"ncexplorer/internal/topk"
)

// RollUpRequest is a typed roll-up query: the concept pattern plus the
// paging, filtering, and explanation controls of the v2 API. The JSON
// tags match the /v2/query/rollup request body.
type RollUpRequest struct {
	// Concepts is the concept pattern; every result matches all of them.
	Concepts []string `json:"concepts"`
	// K is the page size. It must be positive; RollUpQuery rejects
	// K <= 0 with CodeInvalidArgument (HTTP callers get a default
	// applied by the server before the request reaches the facade).
	K int `json:"k"`
	// Offset skips the first Offset ranked results (pagination).
	Offset int `json:"offset,omitempty"`
	// Sources restricts results to these source names (e.g. "reuters");
	// empty admits every source.
	Sources []string `json:"sources,omitempty"`
	// MinScore excludes articles scoring below it when > 0.
	MinScore float64 `json:"min_score,omitempty"`
	// Time restricts results to articles published inside the range
	// (inclusive RFC3339 bounds, either side open); nil admits every
	// publication time.
	Time *TimeRange `json:"time_range,omitempty"`
	// GroupBy additionally buckets matches by publication period —
	// "day", "week" (Monday-start, UTC) or "month" — into
	// RollUpResult.Periods with trend annotations. Empty disables.
	GroupBy string `json:"group_by,omitempty"`
	// Explain includes per-concept explanations in each article.
	Explain bool `json:"explain,omitempty"`
}

// TimeRange is the wire form of a publication-time filter: inclusive
// RFC3339 bounds, either side optional (empty = open).
type TimeRange struct {
	Start string `json:"start,omitempty"`
	End   string `json:"end,omitempty"`
}

// RollUpResult is one page of roll-up results with the pagination
// cursor a client needs to continue: Total matches behind the filters
// and NextOffset (-1 once the listing is exhausted). Generation is
// the index snapshot the whole page was served from — queries pin one
// generation end-to-end, so a page never mixes pre- and post-ingest
// state.
type RollUpResult struct {
	Query      []string  `json:"query"`
	K          int       `json:"k"`
	Offset     int       `json:"offset"`
	Total      int       `json:"total"`
	NextOffset int       `json:"next_offset"`
	Generation uint64    `json:"generation"`
	Articles   []Article `json:"articles"`
	// Periods is the per-period match histogram when the request set
	// GroupBy: ascending period starts, counts summing to Total, each
	// bucket annotated with its trend versus the previous calendar
	// period.
	Periods []Period `json:"periods,omitempty"`
}

// Period is one bucket of a grouped roll-up. Trend fields compare the
// bucket to the immediately preceding *calendar* period: a gap in the
// listing means that period had zero matches, so Delta is measured
// against zero across gaps.
type Period struct {
	// Start is the period's first instant, RFC3339 UTC.
	Start string `json:"start"`
	// Count is the number of matching articles published in the period.
	Count int `json:"count"`
	// Delta is Count minus the previous calendar period's count.
	Delta int `json:"delta"`
	// Direction summarises Delta: "up", "down", or "flat".
	Direction string `json:"direction"`
	// Rank orders the page's periods by Count descending (ties broken
	// by earlier start), 1-based — "the busiest period is rank 1".
	Rank int `json:"rank"`
	// RankDelta is the previous calendar period's rank minus this
	// one's (positive = climbed). Zero when the previous period is
	// absent from the listing.
	RankDelta int `json:"rank_delta"`
}

// DrillDownRequest is a typed drill-down query. The JSON tags match
// the /v2/query/drilldown request body.
type DrillDownRequest struct {
	// Concepts is the concept pattern being refined.
	Concepts []string `json:"concepts"`
	// K is the page size; K <= 0 is rejected with CodeInvalidArgument.
	K int `json:"k"`
	// Offset skips the first Offset ranked suggestions.
	Offset int `json:"offset,omitempty"`
	// MinScore excludes suggestions scoring below it when > 0.
	MinScore float64 `json:"min_score,omitempty"`
	// Time restricts the articles feeding coverage, specificity and
	// diversity to those published inside the range; nil admits all.
	Time *TimeRange `json:"time_range,omitempty"`
	// Explain includes the score components (coverage, specificity,
	// diversity) in each suggestion; without it only concept, score and
	// matched_docs are populated.
	Explain bool `json:"explain,omitempty"`
}

// DrillDownResult is one page of subtopic suggestions with the same
// pagination cursor as RollUpResult. Total counts the *rankable*
// suggestions — the engine scores a shortlist of max(128, K)
// candidates independent of Offset, so pages of a fixed-K listing
// are mutually consistent and the cursor ends at the window edge.
type DrillDownResult struct {
	Query       []string             `json:"query"`
	K           int                  `json:"k"`
	Offset      int                  `json:"offset"`
	Total       int                  `json:"total"`
	NextOffset  int                  `json:"next_offset"`
	Generation  uint64               `json:"generation"`
	Suggestions []SubtopicSuggestion `json:"suggestions"`
}

// Key returns the canonical cache key of the request: every field that
// can change the response participates, so paginated and filtered
// variants of one concept pattern occupy distinct cache entries.
func (r RollUpRequest) Key() string {
	var kb qcache.KeyBuilder
	kb.Str("rollup2").Int(r.K).Int(r.Offset).Float(r.MinScore).Bool(r.Explain)
	keyTime(&kb, r.Time)
	kb.Str(strings.ToLower(strings.TrimSpace(r.GroupBy)))
	kb.Strs(canonicalSources(r.Sources))
	kb.Strs(CanonicalConcepts(r.Concepts))
	return kb.String()
}

// Key returns the canonical cache key of the request.
func (r DrillDownRequest) Key() string {
	var kb qcache.KeyBuilder
	kb.Str("drilldown2").Int(r.K).Int(r.Offset).Float(r.MinScore).Bool(r.Explain)
	keyTime(&kb, r.Time)
	kb.Strs(CanonicalConcepts(r.Concepts))
	return kb.String()
}

// keyTime folds a time filter into a cache key. Bounds are folded as
// parsed instants when they parse (equivalent RFC3339 spellings of one
// instant share a cache entry) and as raw strings otherwise — a
// malformed range still occupies a distinct key, it just never caches
// a success.
func keyTime(kb *qcache.KeyBuilder, tr *TimeRange) {
	if tr == nil {
		kb.Str("")
		return
	}
	fold := func(s string) {
		if s == "" {
			kb.Str("")
			return
		}
		if t, err := time.Parse(time.RFC3339, s); err == nil {
			kb.Int(int(t.Unix()))
			return
		}
		kb.Str(s)
	}
	kb.Str("t")
	fold(tr.Start)
	fold(tr.End)
}

// canonicalSources trims, dedupes, lowercases and sorts source names.
func canonicalSources(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	out := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SourceNames lists the valid Sources filter values.
func SourceNames() []string {
	out := make([]string, 0, len(corpus.Sources))
	for _, s := range corpus.Sources {
		out = append(out, s.String())
	}
	return out
}

// resolveSources maps source names to corpus sources, rejecting
// unknown names with a typed error that lists the valid values.
func resolveSources(names []string) ([]corpus.Source, error) {
	names = canonicalSources(names)
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]corpus.Source, 0, len(names))
	for _, n := range names {
		found := false
		for _, s := range corpus.Sources {
			if s.String() == n {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			e := newErrorf(CodeInvalidArgument, "ncexplorer: unknown source %q", n)
			e.Details = map[string]any{"source": n, "valid_sources": SourceNames()}
			return nil, e
		}
	}
	return out, nil
}

// validatePage rejects the request shapes every typed query refuses:
// non-positive page size, negative offset, negative score floor.
func validatePage(k, offset int, minScore float64) error {
	if k <= 0 {
		return newErrorf(CodeInvalidArgument, "ncexplorer: invalid k %d: want a positive integer", k)
	}
	if offset < 0 {
		return newErrorf(CodeInvalidArgument, "ncexplorer: invalid offset %d: want a non-negative integer", offset)
	}
	if minScore < 0 {
		return newErrorf(CodeInvalidArgument, "ncexplorer: invalid min_score %g: want a non-negative number", minScore)
	}
	return nil
}

// resolveTimeRange validates the wire time filter and converts it to
// the engine's Unix-seconds range: non-RFC3339 bounds and inverted
// ranges are rejected with CodeInvalidArgument; an absent side is
// open. A nil or completely empty range means no filter.
func resolveTimeRange(tr *TimeRange) (*core.TimeRange, error) {
	if tr == nil || (tr.Start == "" && tr.End == "") {
		return nil, nil
	}
	out := &core.TimeRange{Min: math.MinInt64, Max: math.MaxInt64}
	if tr.Start != "" {
		t, err := time.Parse(time.RFC3339, tr.Start)
		if err != nil {
			e := newErrorf(CodeInvalidArgument,
				"ncexplorer: invalid time_range.start %q: want RFC3339 (e.g. 2023-09-04T08:00:00Z)", tr.Start)
			e.Details = map[string]any{"start": tr.Start}
			return nil, e
		}
		out.Min = t.Unix()
	}
	if tr.End != "" {
		t, err := time.Parse(time.RFC3339, tr.End)
		if err != nil {
			e := newErrorf(CodeInvalidArgument,
				"ncexplorer: invalid time_range.end %q: want RFC3339 (e.g. 2023-09-04T08:00:00Z)", tr.End)
			e.Details = map[string]any{"end": tr.End}
			return nil, e
		}
		out.Max = t.Unix()
	}
	if out.Min > out.Max {
		e := newErrorf(CodeInvalidArgument,
			"ncexplorer: invalid time_range: start %s is after end %s", tr.Start, tr.End)
		e.Details = map[string]any{"start": tr.Start, "end": tr.End}
		return nil, e
	}
	return out, nil
}

// ValidateTimeRange checks a wire time filter without running a query
// — the session layer vets zoom windows with the same rulebook the
// query endpoints apply (RFC3339 bounds, start ≤ end).
func ValidateTimeRange(tr *TimeRange) error {
	_, err := resolveTimeRange(tr)
	return err
}

// ResolveTimeRange converts a wire time range to the engine's filter
// form — the internal scatter endpoints resolve the router-sent window
// with it before invoking the core partial queries.
func ResolveTimeRange(tr *TimeRange) (*core.TimeRange, error) {
	return resolveTimeRange(tr)
}

// queryPlan is a typed request validated and resolved against a graph:
// the canonical concept list and everything the engine takes in
// resolved form.
type queryPlan struct {
	concepts []string
	q        core.Query
	sources  []corpus.Source
	tr       *core.TimeRange
	gb       core.GroupBy
}

// plan is the one validate-and-resolve step of every typed query —
// RollUpQuery, DrillDownQuery, and a router's QueryWorld — in one
// order: page, sources, time, group_by, concepts. A request with
// several defects therefore fails on the same one on every path.
func (r RollUpRequest) plan(w *QueryWorld) (queryPlan, error) {
	var p queryPlan
	if err := validatePage(r.K, r.Offset, r.MinScore); err != nil {
		return p, err
	}
	var err error
	if p.sources, err = resolveSources(r.Sources); err != nil {
		return p, err
	}
	if p.tr, err = resolveTimeRange(r.Time); err != nil {
		return p, err
	}
	if p.gb, err = resolveGroupBy(r.GroupBy); err != nil {
		return p, err
	}
	p.concepts = CanonicalConcepts(r.Concepts)
	p.q, err = w.ResolveConcepts(p.concepts)
	return p, err
}

// plan validates and resolves a drill-down: a roll-up plan without
// sources or group_by.
func (r DrillDownRequest) plan(w *QueryWorld) (queryPlan, error) {
	return RollUpRequest{Concepts: r.Concepts, K: r.K, Offset: r.Offset, MinScore: r.MinScore, Time: r.Time}.plan(w)
}

// MergeRollUp merges shard roll-up pages into the page RollUpQuery
// answers over the union corpus. req is the public request as
// QueryWorld.ResolveRollUp returned it; each shard page is that shard's
// top-(k+offset) at offset 0, scored with corpus-global statistics, all
// at one generation. Articles merge under the engine's (score desc, doc
// asc) order and slice to [offset:][:k]; totals sum; period histograms
// sum per period with their trends recomputed.
func MergeRollUp(req RollUpRequest, shards []RollUpResult) RollUpResult {
	lists := make([][]Article, 0, len(shards))
	periodLists := make([][]Period, 0, len(shards))
	res := RollUpResult{Query: req.Concepts, K: req.K, Offset: req.Offset}
	for _, s := range shards {
		res.Total += s.Total
		res.Generation = s.Generation
		lists = append(lists, s.Articles)
		periodLists = append(periodLists, s.Periods)
	}
	merged := topk.MergeSorted(lists, cmpArticle, req.K+req.Offset)
	res.Articles = []Article{}
	if req.Offset < len(merged) {
		res.Articles = merged[req.Offset:]
	}
	res.NextOffset = nextOffset(req.Offset, len(res.Articles), res.Total)
	res.Periods = mergePeriods(req.GroupBy, periodLists)
	return res
}

// cmpArticle is the roll-up ranking order over rendered articles —
// identical to the engine's (score desc, doc asc), the article ID being
// the global document ID.
func cmpArticle(a, b Article) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// mergePeriods merges per-shard period histograms associatively: equal
// period starts sum their counts (shards are document-disjoint, so the
// sums equal a monolithic engine's buckets), and the trend annotations
// are recomputed over the merged listing with the same arithmetic
// buildPeriods applies locally. groupBy was validated before the
// scatter.
func mergePeriods(groupBy string, lists [][]Period) []Period {
	gb, err := resolveGroupBy(groupBy)
	if err != nil || gb == core.GroupNone {
		return nil
	}
	counts := make(map[int64]int)
	for _, list := range lists {
		for _, p := range list {
			t, err := time.Parse(time.RFC3339, p.Start)
			if err != nil {
				continue // shards never emit unparsable starts
			}
			counts[t.Unix()] += p.Count
		}
	}
	if len(counts) == 0 {
		return nil
	}
	buckets := make([]core.PeriodBucket, 0, len(counts))
	for s, n := range counts {
		buckets = append(buckets, core.PeriodBucket{Start: s, Count: n})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Start < buckets[j].Start })
	return buildPeriods(gb, buckets)
}

// groupByNames lists the valid group_by values.
var groupByNames = []string{"day", "week", "month"}

// resolveGroupBy maps the wire group_by value to the engine's enum,
// rejecting unknown values with a typed error listing the valid ones.
func resolveGroupBy(name string) (core.GroupBy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "":
		return core.GroupNone, nil
	case "day":
		return core.GroupDay, nil
	case "week":
		return core.GroupWeek, nil
	case "month":
		return core.GroupMonth, nil
	default:
		e := newErrorf(CodeInvalidArgument, "ncexplorer: unknown group_by %q", name)
		e.Details = map[string]any{"group_by": name, "valid_group_by": groupByNames}
		return core.GroupNone, e
	}
}

// buildPeriods renders the engine's period buckets with trend
// annotations: delta and direction versus the previous calendar
// period (zero-count across listing gaps), and rank movement within
// the page. Buckets arrive ascending by start and leave in that order.
func buildPeriods(gb core.GroupBy, buckets []core.PeriodBucket) []Period {
	if len(buckets) == 0 {
		return nil
	}
	// Rank by count descending, earlier start breaking ties.
	order := make([]int, len(buckets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ba, bb := buckets[order[a]], buckets[order[b]]
		if ba.Count != bb.Count {
			return ba.Count > bb.Count
		}
		return ba.Start < bb.Start
	})
	rank := make([]int, len(buckets))
	for pos, idx := range order {
		rank[idx] = pos + 1
	}
	out := make([]Period, len(buckets))
	for i, b := range buckets {
		p := Period{
			Start: time.Unix(b.Start, 0).UTC().Format(time.RFC3339),
			Count: b.Count,
			Delta: b.Count, // vs an empty previous period, unless adjacent below
			Rank:  rank[i],
		}
		if i > 0 && gb.Next(buckets[i-1].Start) == b.Start {
			p.Delta = b.Count - buckets[i-1].Count
			p.RankDelta = rank[i-1] - rank[i]
		}
		switch {
		case p.Delta > 0:
			p.Direction = "up"
		case p.Delta < 0:
			p.Direction = "down"
		default:
			p.Direction = "flat"
		}
		out[i] = p
	}
	return out
}

// nextOffset computes the pagination cursor: the offset of the page
// after this one, or -1 once the listing is exhausted.
func nextOffset(offset, returned, total int) int {
	if n := offset + returned; n < total && returned > 0 {
		return n
	}
	return -1
}

// RollUpQuery is the typed, context-aware roll-up: pagination via
// Offset, source and score filters, optional explanations, and
// cancellation through ctx (a cancelled query returns CodeCancelled /
// CodeDeadlineExceeded and stops consuming engine work). The concept
// pattern is canonicalized before execution, so permutations of one
// pattern produce identical results.
func (x *Explorer) RollUpQuery(ctx context.Context, req RollUpRequest) (RollUpResult, error) {
	p, err := req.plan(x.QueryWorld)
	if err != nil {
		return RollUpResult{}, err
	}
	page, err := x.engine.RollUpPage(ctx, p.q, core.RollUpOptions{
		K: req.K, Offset: req.Offset, Sources: p.sources, MinScore: req.MinScore,
		Time: p.tr, GroupBy: p.gb,
	})
	if err != nil {
		return RollUpResult{}, ctxError(err)
	}
	articles := make([]Article, 0, len(page.Results))
	for _, r := range page.Results {
		articles = append(articles, x.article(r, req.Explain))
	}
	return RollUpResult{
		Query:      p.concepts,
		K:          req.K,
		Offset:     req.Offset,
		Total:      page.Total,
		NextOffset: nextOffset(req.Offset, len(articles), page.Total),
		Generation: page.Generation,
		Articles:   articles,
		Periods:    buildPeriods(p.gb, page.Periods),
	}, nil
}

// DrillDownQuery is the typed, context-aware drill-down — the
// suggestion side of RollUpQuery with the same pagination and
// cancellation contract.
func (x *Explorer) DrillDownQuery(ctx context.Context, req DrillDownRequest) (DrillDownResult, error) {
	p, err := req.plan(x.QueryWorld)
	if err != nil {
		return DrillDownResult{}, err
	}
	page, err := x.engine.DrillDownPage(ctx, p.q, core.DrillDownOptions{
		K: req.K, Offset: req.Offset, MinScore: req.MinScore, Time: p.tr,
	})
	if err != nil {
		return DrillDownResult{}, ctxError(err)
	}
	req.Concepts = p.concepts
	return x.RenderDrillDown(req, page), nil
}

// RenderDrillDown renders one drill-down page — the engine's, or a
// router's merge of shard partials — for a request whose concept list
// is already canonical (as ResolveDrillDown returns it). Score
// components appear only under Explain.
func (w *QueryWorld) RenderDrillDown(req DrillDownRequest, page core.DrillDownPage) DrillDownResult {
	subs := make([]SubtopicSuggestion, 0, len(page.Results))
	for _, s := range page.Results {
		sub := SubtopicSuggestion{
			Concept:     w.g.Name(s.Concept),
			Score:       s.Score,
			MatchedDocs: s.MatchedDocs,
		}
		if req.Explain {
			sub.Coverage = s.Coverage
			sub.Specificity = s.Specificity
			sub.Diversity = s.Diversity
		}
		subs = append(subs, sub)
	}
	return DrillDownResult{
		Query:       req.Concepts,
		K:           req.K,
		Offset:      req.Offset,
		Total:       page.Total,
		NextOffset:  nextOffset(req.Offset, len(subs), page.Total),
		Generation:  page.Generation,
		Suggestions: subs,
	}
}

// article converts one engine result, attaching explanations only when
// requested. Display data is read through the engine's snapshot:
// documents are append-only and immutable, so the article is identical
// in every generation that contains it.
func (x *Explorer) article(r core.DocResult, explain bool) Article {
	d := x.engine.Doc(r.Doc)
	art := Article{
		ID:          int(r.Doc),
		Source:      d.Source.String(),
		Title:       d.Title,
		Body:        d.Body,
		Score:       r.Score,
		PublishedAt: time.Unix(d.PublishedAt, 0).UTC().Format(time.RFC3339),
	}
	if !explain {
		return art
	}
	for _, cc := range r.Contributors {
		expl := Explanation{Concept: x.g.Name(cc.Concept), CDR: cc.CDR}
		if cc.Pivot >= 0 {
			expl.Pivot = x.g.Name(cc.Pivot)
		}
		art.Explanations = append(art.Explanations, expl)
	}
	return art
}

// ValidateConcepts checks that every name resolves to a known concept,
// returning the same typed errors (with nearest-concept suggestions)
// as the query methods. The session layer uses it to vet patterns
// before storing them.
func (x *Explorer) ValidateConcepts(names []string) error {
	_, err := x.ResolveConcepts(CanonicalConcepts(names))
	return err
}

// Parallelism reports the engine's worker budget — the bound the batch
// endpoint uses to execute independent queries concurrently without
// oversubscribing the engine's own intra-query helpers.
func (x *Explorer) Parallelism() int {
	return x.engine.Options().Workers
}

// maxSuggestions bounds the nearest-concept list attached to
// unknown-concept errors.
const maxSuggestions = 5

// SuggestConcepts returns up to n concept names nearest to name:
// case-insensitive exact and substring matches first, then small
// edit-distance neighbours — the "did you mean" list behind
// CodeUnknownConcept errors.
func (w *QueryWorld) SuggestConcepts(name string, n int) []string {
	if n <= 0 || strings.TrimSpace(name) == "" {
		return nil
	}
	needle := strings.ToLower(strings.TrimSpace(name))
	// Edit-distance budget: generous enough for typos, tight enough
	// that short names don't match everything.
	maxDist := len(needle)/3 + 1
	type scored struct {
		name string
		rank int // lower is better
	}
	var cands []scored
	w.g.Concepts(func(c kg.NodeID) bool {
		cname := w.g.Name(c)
		lower := strings.ToLower(cname)
		switch {
		case lower == needle:
			cands = append(cands, scored{cname, 0})
		case strings.HasPrefix(lower, needle) || strings.HasPrefix(needle, lower):
			cands = append(cands, scored{cname, 1})
		case strings.Contains(lower, needle) || strings.Contains(needle, lower):
			cands = append(cands, scored{cname, 2})
		default:
			if d := boundedEditDistance(lower, needle, maxDist); d <= maxDist {
				cands = append(cands, scored{cname, 2 + d})
			}
		}
		return true
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rank != cands[j].rank {
			return cands[i].rank < cands[j].rank
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) == 0 {
		return nil
	}
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// boundedEditDistance computes the Levenshtein distance between a and
// b, giving up (returning bound+1) as soon as the distance provably
// exceeds bound — O(len·bound) instead of O(len²) per candidate.
func boundedEditDistance(a, b string, bound int) int {
	if d := len(a) - len(b); d > bound || -d > bound {
		return bound + 1
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if v := prev[j] + 1; v < m { // delete
				m = v
			}
			if v := cur[j-1] + 1; v < m { // insert
				m = v
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return bound + 1
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
