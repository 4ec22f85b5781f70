package ncexplorer

import (
	"context"
	"errors"
	"net/url"
	"sort"
	"time"

	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
	"ncexplorer/internal/watch"
)

// Standing queries. A watchlist is a persistent concept-pattern query:
// once registered, every ingested batch is evaluated against it — the
// delta only, never the whole corpus — and matching articles are
// published as alerts, retained for catch-up, streamed to SSE
// subscribers, and POSTed to an optional webhook. Watchlists and their
// delivery cursors persist with the snapshot and survive restarts.
// DESIGN.md §8 gives the model and the delta-evaluation correctness
// argument.

// WatchlistSpec is a registration request.
type WatchlistSpec struct {
	// Name is an optional client label.
	Name string `json:"name,omitempty"`
	// Concepts is the concept pattern; an article alerts only if it
	// matches every concept. Validated like a query — unknown names get
	// CodeUnknownConcept with did-you-mean suggestions.
	Concepts []string `json:"concepts"`
	// Sources restricts alerts to these source names; empty admits all.
	Sources []string `json:"sources,omitempty"`
	// MinScore excludes matches scoring below it (at the generation the
	// article arrived) when > 0.
	MinScore float64 `json:"min_score,omitempty"`
	// WindowCount and WindowDays arm a time-window threshold: the
	// watchlist stays silent until at least WindowCount matching
	// articles were published inside one trailing WindowDays-day window
	// ("alert once I see ≥3 matches in 7 days"). Set both or neither.
	// The accumulated window re-arms from empty after a restart.
	WindowCount int `json:"window_count,omitempty"`
	WindowDays  int `json:"window_days,omitempty"`
	// WebhookURL, when set, receives each alert as a JSON POST
	// (at-least-once, bounded retries). Must be http or https.
	WebhookURL string `json:"webhook_url,omitempty"`
}

// Watchlist is a registered watchlist's public state.
type Watchlist struct {
	ID       string   `json:"id"`
	Name     string   `json:"name,omitempty"`
	Concepts []string `json:"concepts"`
	Sources  []string `json:"sources,omitempty"`
	MinScore float64  `json:"min_score,omitempty"`
	// WindowCount/WindowDays echo the registered time-window threshold
	// (both zero when the watchlist alerts on every match).
	WindowCount int `json:"window_count,omitempty"`
	WindowDays  int `json:"window_days,omitempty"`
	// WebhookURL is the configured delivery endpoint, if any.
	WebhookURL string `json:"webhook_url,omitempty"`
	// CreatedGeneration is the snapshot generation at registration; the
	// watchlist sees batches committed after it.
	CreatedGeneration uint64 `json:"created_generation"`
	// LastSeq is the latest alert sequence fired (0 when none yet);
	// clients resume an event stream with ?after=<seq>.
	LastSeq uint64 `json:"last_seq"`
}

// Alert re-exports the watch package's alert envelope: sequence,
// watchlist, generation, and the matched article with the same
// score-and-explanations payload a roll-up result carries.
type Alert = watch.Alert

// WatchCounters re-exports the standing-query activity counters
// surfaced in Stats and /statsz.
type WatchCounters watch.Counters

// WatchSubscription re-exports a live alert subscription: read C until
// closed, then Cancel.
type WatchSubscription = watch.Subscription

// RegisterWatchlist validates a spec exactly like a query (canonical
// concepts, typed unknown-concept errors with suggestions, source-name
// validation) and registers it. The new watchlist observes every batch
// ingested after the returned CreatedGeneration; registration is
// atomic against concurrent ingests (a racing batch is either fully
// seen or fully before the watchlist, never half-evaluated). The
// registration is checkpointed immediately when a checkpoint directory
// is configured.
func (x *Explorer) RegisterWatchlist(spec WatchlistSpec) (Watchlist, error) {
	concepts := CanonicalConcepts(spec.Concepts)
	if _, err := x.ResolveConcepts(concepts); err != nil {
		return Watchlist{}, err
	}
	if _, err := resolveSources(spec.Sources); err != nil {
		return Watchlist{}, err
	}
	if spec.MinScore < 0 {
		return Watchlist{}, newErrorf(CodeInvalidArgument,
			"ncexplorer: invalid min_score %g: want a non-negative number", spec.MinScore)
	}
	if spec.WindowCount < 0 || spec.WindowDays < 0 {
		return Watchlist{}, newErrorf(CodeInvalidArgument,
			"ncexplorer: invalid watch window %d/%dd: want non-negative values", spec.WindowCount, spec.WindowDays)
	}
	if (spec.WindowCount > 0) != (spec.WindowDays > 0) {
		return Watchlist{}, newErrorf(CodeInvalidArgument,
			"ncexplorer: window_count and window_days must be set together (got %d and %d)",
			spec.WindowCount, spec.WindowDays)
	}
	if spec.WebhookURL != "" {
		u, err := url.Parse(spec.WebhookURL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return Watchlist{}, newErrorf(CodeInvalidArgument,
				"ncexplorer: invalid webhook_url %q: want an absolute http(s) URL", spec.WebhookURL)
		}
	}
	def := watch.Definition{
		Name:        spec.Name,
		Concepts:    concepts,
		Sources:     canonicalSources(spec.Sources),
		MinScore:    spec.MinScore,
		WindowCount: spec.WindowCount,
		WindowDays:  spec.WindowDays,
		WebhookURL:  spec.WebhookURL,
	}
	var regErr error
	// Pin CreatedGen under the ingest lock: no batch can commit between
	// reading the generation and the registration becoming visible, so
	// "watches everything after generation G" is exact.
	x.engine.WithRecentView(0, func(v *core.DeltaView) {
		def.CreatedGen = v.Generation()
		def, regErr = x.watch.Register(def)
	})
	if regErr != nil {
		if errors.Is(regErr, watch.ErrLimit) {
			return Watchlist{}, &Error{Code: CodeLimitExceeded, Message: "ncexplorer: " + regErr.Error(), Err: regErr}
		}
		return Watchlist{}, regErr
	}
	x.engine.Checkpoint()
	return x.watchlist(def, 0), nil
}

// GetWatchlist returns one watchlist, or CodeNotFound.
func (x *Explorer) GetWatchlist(id string) (Watchlist, error) {
	def, last, ok := x.watch.Get(id)
	if !ok {
		return Watchlist{}, newErrorf(CodeNotFound, "ncexplorer: unknown watchlist %q", id)
	}
	return x.watchlist(def, last), nil
}

// ListWatchlists returns all registered watchlists, ordered by ID
// (registration order).
func (x *Explorer) ListWatchlists() []Watchlist {
	defs, seqs := x.watch.List()
	out := make([]Watchlist, len(defs))
	for i, d := range defs {
		out[i] = x.watchlist(d, seqs[i])
	}
	return out
}

// RemoveWatchlist deletes a watchlist, ending its subscriptions and
// deliveries; retained alerts are discarded. Returns CodeNotFound for
// an unknown ID. The removal is checkpointed immediately when a
// checkpoint directory is configured.
func (x *Explorer) RemoveWatchlist(id string) error {
	if !x.watch.Remove(id) {
		return newErrorf(CodeNotFound, "ncexplorer: unknown watchlist %q", id)
	}
	x.engine.Checkpoint()
	return nil
}

// WatchSubscribe opens a live alert subscription on a watchlist,
// replaying retained alerts with Seq > after before any live alert —
// in order, with no gap or duplicate at the catch-up boundary.
func (x *Explorer) WatchSubscribe(id string, after uint64) (*WatchSubscription, error) {
	sub, err := x.watch.Subscribe(id, after)
	if err != nil {
		return nil, newErrorf(CodeNotFound, "ncexplorer: unknown watchlist %q", id)
	}
	return sub, nil
}

// StartWebhooks launches the webhook delivery worker. Call once after
// construction (the server does, when watchlists are enabled); idle
// without webhook-enabled watchlists. timeout bounds each POST
// attempt; 0 selects the 5s default.
func (x *Explorer) StartWebhooks(timeout time.Duration) {
	x.watch.StartWebhooks(watch.WebhookOptions{Timeout: timeout})
}

// DrainWebhooks stops the webhook worker, waiting for the in-flight
// delivery (not the whole backlog) to finish or ctx to expire. Alerts
// not yet acknowledged keep their cursor position — they are persisted
// by the final save and redelivered after restart, which is the
// at-least-once half of the delivery contract.
func (x *Explorer) DrainWebhooks(ctx context.Context) error {
	return x.watch.DrainWebhooks(ctx)
}

// watchlist converts a definition to the public shape.
func (x *Explorer) watchlist(def watch.Definition, lastSeq uint64) Watchlist {
	return Watchlist{
		ID:                def.ID,
		Name:              def.Name,
		Concepts:          def.Concepts,
		Sources:           def.Sources,
		MinScore:          def.MinScore,
		WindowCount:       def.WindowCount,
		WindowDays:        def.WindowDays,
		WebhookURL:        def.WebhookURL,
		CreatedGeneration: def.CreatedGen,
		LastSeq:           lastSeq,
	}
}

// initWatch builds the registry and wires it into the engine: the
// ingest hook evaluates every committed batch, and the encoder makes
// registry state a first-class participant in snapshot persistence
// (written before the manifest, loaded by Open).
func (x *Explorer) initWatch(opts watch.Options) {
	x.watch = watch.NewRegistry(opts)
	x.engine.SetIngestHook(x.watchEvaluate)
	x.engine.SetWatchEncoder(x.watch.Encode)
}

// watchEvaluate is the ingest hook: match every watchlist against the
// batch's delta and publish the alerts. It runs under the ingest lock,
// after the generation swap and before the batch's checkpoint, so
// alert state persists atomically with the batch that fired it.
//
// Matches and scores come from the generation's concept plans and the
// alert's article from the roll-up renderer (x.article), so an alert
// equals the roll-up's answer for that article at that generation by
// construction. Cost is proportional to the delta (and the watchlist
// count), not the corpus: each plan is entered at the delta's first
// document by binary search. That keeps per-ingest overhead flat as the
// corpus grows — the property BenchmarkWatchEvaluate pins.
func (x *Explorer) watchEvaluate(v *core.DeltaView) {
	defs := x.watch.Definitions()
	if len(x.watchWindows) > 0 {
		// Drop window state of removed watchlists. The map is touched
		// only here, under the ingest lock, so removal can't race.
		live := make(map[string]bool, len(defs))
		for _, def := range defs {
			live[def.ID] = true
		}
		for id := range x.watchWindows {
			if !live[id] {
				delete(x.watchWindows, id)
			}
		}
	}
	for _, def := range defs {
		// A watchlist registered at generation G sees batches after G. The
		// hook's generation is always ≥ CreatedGen+1 for pre-batch
		// registrations; equality means the list was registered after this
		// batch committed (impossible here, but the guard is cheap).
		if def.CreatedGen >= v.Generation() {
			continue
		}
		q, err := x.ResolveConcepts(def.Concepts)
		if err != nil {
			continue // world changed under a persisted list; never alerts
		}
		matched := v.MatchedInDelta(q)
		if len(matched) == 0 {
			continue
		}
		var srcs map[corpus.Source]bool
		if len(def.Sources) > 0 {
			resolved, err := resolveSources(def.Sources)
			if err != nil {
				continue
			}
			srcs = make(map[corpus.Source]bool, len(resolved))
			for _, s := range resolved {
				srcs[s] = true
			}
		}
		var arts []Article
		var pubs []int64
		for _, doc := range matched {
			if srcs != nil && !srcs[v.Source(doc)] {
				continue
			}
			score, contribs := v.Score(q, doc)
			if def.MinScore > 0 && score < def.MinScore {
				continue
			}
			pubs = append(pubs, v.Article(doc).PublishedAt)
			arts = append(arts, x.article(core.DocResult{Doc: corpus.DocID(doc), Score: score, Contributors: contribs}, true))
		}
		if def.WindowCount > 0 && !x.windowArmed(def, pubs) {
			continue
		}
		x.watch.Publish(def.ID, v.Generation(), arts)
	}
}

// windowArmed accumulates a windowed watchlist's match publication
// times and reports whether its "≥N matches in D days" threshold is
// met: at least WindowCount of the matches seen so far fall inside the
// trailing WindowDays-day window ending at the latest match time. The
// clock is publication time, not ingest wall time, so backfilled
// corpora window correctly; times before the window are pruned, which
// keeps the state O(WindowCount) per list in steady state. Runs under
// the ingest lock (see watchWindows).
func (x *Explorer) windowArmed(def watch.Definition, pubs []int64) bool {
	if x.watchWindows == nil {
		x.watchWindows = make(map[string][]int64)
	}
	times := x.watchWindows[def.ID]
	times = append(times, pubs...)
	if len(times) == 0 {
		return false
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	span := int64(def.WindowDays) * 86400
	latest := times[len(times)-1]
	cut := sort.Search(len(times), func(i int) bool { return times[i] >= latest-span })
	times = times[cut:]
	x.watchWindows[def.ID] = times
	return len(times) >= def.WindowCount
}
