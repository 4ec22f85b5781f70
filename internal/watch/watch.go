// Package watch implements the standing-query subsystem: durable
// watchlists evaluated incrementally at ingest time, with alerts
// pushed to SSE subscribers and webhook endpoints.
//
// Division of labour: this package owns the durable and delivery state
// — watchlist definitions, per-watchlist alert ring buffers with
// monotone sequence numbers, SSE subscriptions, the webhook delivery
// cursor and worker, and the versioned codec that persists it all
// alongside the snapshot manifest. It knows nothing about matching or
// scoring: the facade evaluates each ingested delta through the
// engine's DeltaView hook and hands the rendered articles to Publish.
//
// Delivery semantics (documented in DESIGN.md §8):
//
//   - SSE is in-order within a subscription: a subscriber receives
//     alerts in ascending sequence, catch-up (?after=seq) first, then
//     live, with no gap between them. A subscriber that cannot keep up
//     is dropped (its channel closed) rather than blocking the ingest
//     path; it reconnects from its last sequence.
//   - Webhooks are at-least-once: the cursor advances only after a 2xx
//     acknowledgement, persists un-acked across restarts, and retries
//     with bounded backoff. An alert evicted from the ring before
//     acknowledgement is counted dropped, never silently skipped.
package watch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Definition describes one registered watchlist. Concepts and Sources
// are stored canonically (trimmed, deduplicated, sorted); the facade
// validates them against the graph and corpus before registration.
type Definition struct {
	// ID is the registry-assigned identifier ("w000001", ...).
	ID string
	// Name is an optional client label.
	Name string
	// Concepts is the concept pattern; a document alerts only if it
	// matches every concept (Definition 1).
	Concepts []string
	// Sources restricts alerts to these source names; empty admits all.
	Sources []string
	// MinScore excludes matches scoring below it (at the generation the
	// document arrived) when > 0.
	MinScore float64
	// WindowCount/WindowDays arm a time-window threshold: the watchlist
	// stays silent until at least WindowCount matching articles carry
	// publication times inside one trailing WindowDays-day window
	// ("≥N matches in 7 days"). Both zero disables the threshold; the
	// facade validates that they are set together.
	WindowCount int
	WindowDays  int
	// WebhookURL, when set, receives each alert as a JSON POST.
	WebhookURL string
	// CreatedGen is the snapshot generation at registration; the
	// watchlist sees batches committed after it.
	CreatedGen uint64
}

// Alert is one standing-query match: a typed envelope carrying the
// matched article with its score and per-concept evidence — the same
// explanation payload a /v2 roll-up result carries. Alerts are
// immutable point-in-time events: the score is the article's relevance
// at the generation it entered the corpus, and replaying an alert (SSE
// catch-up, webhook redelivery, warm restart) reproduces it
// byte-identically.
type Alert struct {
	// Seq is the per-watchlist monotone sequence number (first alert 1).
	Seq uint64 `json:"seq"`
	// Watchlist is the owning watchlist's ID.
	Watchlist string `json:"watchlist"`
	// Generation is the snapshot generation whose ingest fired the alert.
	Generation uint64 `json:"generation"`
	// Article is the matched article with score and evidence.
	Article Article `json:"article"`
}

// Article is the one article payload of roll-up results and alerts
// alike: the facade re-exports it as ncexplorer.Article and renders
// both through the same function, so alert envelopes and query results
// read identically.
type Article struct {
	ID     int     `json:"id"`
	Source string  `json:"source"`
	Title  string  `json:"title"`
	Body   string  `json:"body"`
	Score  float64 `json:"score"`
	// PublishedAt is the article's publication time, RFC3339 UTC.
	// Always present: articles ingested without one were stamped with
	// the ingest wall clock.
	PublishedAt  string        `json:"published_at"`
	Explanations []Explanation `json:"explanations,omitempty"`
}

// Explanation attributes part of an article's relevance to one query
// concept: the concept-document relevance (cdr) and the pivot entity
// whose mention carried the match.
type Explanation struct {
	Concept string  `json:"concept"`
	CDR     float64 `json:"cdr"`
	Pivot   string  `json:"pivot,omitempty"`
}

// Options bounds a Registry. Zero values select defaults.
type Options struct {
	// MaxWatchlists caps concurrent registrations. 0 ⇒ 64.
	MaxWatchlists int
	// AlertBuffer is the per-watchlist ring capacity — the retention
	// window for SSE catch-up and webhook redelivery. 0 ⇒ 256.
	AlertBuffer int
}

func (o Options) withDefaults() Options {
	if o.MaxWatchlists <= 0 {
		o.MaxWatchlists = 64
	}
	if o.AlertBuffer <= 0 {
		o.AlertBuffer = 256
	}
	return o
}

// Counters is the registry's activity snapshot for /statsz.
type Counters struct {
	// Watchlists is the live registration count.
	Watchlists int `json:"watchlists"`
	// AlertsFired counts alerts published into ring buffers.
	AlertsFired uint64 `json:"alerts_fired"`
	// AlertsDelivered counts deliveries: SSE sends plus webhook acks.
	AlertsDelivered uint64 `json:"alerts_delivered"`
	// AlertsDropped counts losses: ring evictions past an un-acked
	// webhook cursor and lagging SSE subscribers disconnected.
	AlertsDropped uint64 `json:"alerts_dropped"`
	// WebhookRetries / WebhookFailures count failed POST attempts and
	// delivery rounds that exhausted their retry budget.
	WebhookRetries  uint64 `json:"webhook_retries"`
	WebhookFailures uint64 `json:"webhook_failures"`
	// SSESubscribers is the live subscription count.
	SSESubscribers int `json:"sse_subscribers"`
}

// ErrLimit is returned by Register when MaxWatchlists is reached.
var ErrLimit = errors.New("watch: watchlist limit reached")

// ErrUnknown is returned for operations on an unregistered ID.
var ErrUnknown = errors.New("watch: unknown watchlist")

// list is one watchlist's runtime state.
type list struct {
	def Definition
	// nextSeq is the sequence the next alert will take (starts at 1).
	nextSeq uint64
	// ack is the webhook delivery cursor: the highest acknowledged
	// sequence. Alerts in (ack, nextSeq) are pending delivery.
	ack uint64
	// ring holds the most recent alerts, ascending by Seq, at most
	// AlertBuffer of them.
	ring []Alert
	// subs are the live SSE subscriptions.
	subs map[*Subscription]struct{}
}

// Registry is the concurrency-safe watchlist store. One Registry backs
// one Explorer; the facade publishes into it from the engine's ingest
// hook (serialised by the ingest lock) while HTTP handlers register,
// subscribe, and the webhook worker delivers concurrently.
type Registry struct {
	mu     sync.Mutex
	opts   Options
	lists  map[string]*list
	nextID uint64 // next numeric ID to assign (starts at 1)

	fired, delivered, dropped uint64
	retries, failures         uint64
	subscribers               int

	// Webhook worker plumbing (webhook.go).
	kick       chan struct{}
	stop       chan struct{}
	workerDone chan struct{}
	stopOnce   sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry(opts Options) *Registry {
	return &Registry{
		opts:   opts.withDefaults(),
		lists:  make(map[string]*list),
		nextID: 1,
		kick:   make(chan struct{}, 1),
	}
}

// Register adds a watchlist, assigning its ID. The definition's
// Concepts and Sources must already be canonical (the facade
// canonicalizes); Register defensively sorts and dedupes so persisted
// state is canonical no matter the caller.
func (r *Registry) Register(def Definition) (Definition, error) {
	def.Concepts = sortedUnique(def.Concepts)
	def.Sources = sortedUnique(def.Sources)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lists) >= r.opts.MaxWatchlists {
		return Definition{}, fmt.Errorf("%w (max %d)", ErrLimit, r.opts.MaxWatchlists)
	}
	def.ID = fmt.Sprintf("w%06x", r.nextID)
	r.nextID++
	r.lists[def.ID] = &list{def: def, nextSeq: 1, subs: make(map[*Subscription]struct{})}
	return def, nil
}

// Remove deletes a watchlist, closing its live subscriptions.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lists[id]
	if !ok {
		return false
	}
	for sub := range l.subs {
		r.detachLocked(l, sub)
	}
	delete(r.lists, id)
	return true
}

// Get returns a watchlist's definition and its latest sequence.
func (r *Registry) Get(id string) (Definition, uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lists[id]
	if !ok {
		return Definition{}, 0, false
	}
	return l.def, l.nextSeq - 1, true
}

// List returns all definitions with their latest sequences, sorted by
// ID (registration order: IDs are fixed-width counters).
func (r *Registry) List() ([]Definition, []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defs := make([]Definition, 0, len(r.lists))
	for _, l := range r.lists {
		defs = append(defs, l.def)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
	seqs := make([]uint64, len(defs))
	for i, d := range defs {
		seqs[i] = r.lists[d.ID].nextSeq - 1
	}
	return defs, seqs
}

// Definitions returns the definitions alone, sorted by ID — the
// evaluation hook iterates this.
func (r *Registry) Definitions() []Definition {
	defs, _ := r.List()
	return defs
}

// Publish appends the batch's alerts for one watchlist: assigns their
// sequence numbers and generation stamp, retains them in the ring
// (evicting the oldest past capacity), forwards them to live
// subscribers, and kicks the webhook worker. Articles must arrive in
// ascending document order; alerts inherit it. Publishing to a removed
// ID is a no-op (a watchlist deleted mid-evaluation simply stops
// alerting).
func (r *Registry) Publish(id string, gen uint64, arts []Article) {
	if len(arts) == 0 {
		return
	}
	r.mu.Lock()
	l, ok := r.lists[id]
	if !ok {
		r.mu.Unlock()
		return
	}
	for _, art := range arts {
		a := Alert{Seq: l.nextSeq, Watchlist: id, Generation: gen, Article: art}
		l.nextSeq++
		r.fired++
		l.ring = append(l.ring, a)
		if len(l.ring) > r.opts.AlertBuffer {
			// Evicting past an un-acked webhook cursor loses the alert for
			// delivery: count it and move the cursor over it, so the worker
			// never scans a gap it would have to account a second time.
			evicted := l.ring[0]
			if l.def.WebhookURL != "" && evicted.Seq > l.ack {
				r.dropped++
				l.ack = evicted.Seq
			}
			l.ring = append(l.ring[:0], l.ring[1:]...)
		}
		for sub := range l.subs {
			select {
			case sub.ch <- a:
				r.delivered++
			default:
				// A subscriber that cannot drain its buffer would block the
				// ingest path; drop it instead. The closed channel tells the
				// handler to end the stream, and the client resumes from its
				// last sequence.
				r.dropped++
				r.detachLocked(l, sub)
			}
		}
	}
	webhook := l.def.WebhookURL != ""
	r.mu.Unlock()
	if webhook {
		r.kickWebhooks()
	}
}

// Replay returns a copy of the retained alerts with Seq > after, in
// order, plus the earliest sequence still retained (0 when the ring is
// empty). A client whose cursor predates the retention window can see
// the gap: earliest > after+1.
func (r *Registry) Replay(id string, after uint64) ([]Alert, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lists[id]
	if !ok {
		return nil, 0, ErrUnknown
	}
	var earliest uint64
	if len(l.ring) > 0 {
		earliest = l.ring[0].Seq
	}
	i := sort.Search(len(l.ring), func(j int) bool { return l.ring[j].Seq > after })
	out := append([]Alert(nil), l.ring[i:]...)
	return out, earliest, nil
}

// Subscription is one live SSE subscription. Read alerts from C until
// it closes (registry shutdown, watchlist removal, or the subscriber
// lagging past its buffer); call Cancel exactly once when done.
type Subscription struct {
	ch chan Alert
	// C delivers catch-up alerts first, then live alerts, in ascending
	// sequence with no gap or duplicate between the two.
	C <-chan Alert

	r      *Registry
	listID string
	closed bool // guarded by r.mu
}

// Cancel detaches the subscription. Safe to call after the channel
// closed; not safe to call twice concurrently with itself.
func (s *Subscription) Cancel() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if l, ok := s.r.lists[s.listID]; ok {
		if _, live := l.subs[s]; live {
			s.r.detachLocked(l, s)
		}
	}
}

// detachLocked removes a subscription and closes its channel. r.mu held.
func (r *Registry) detachLocked(l *list, sub *Subscription) {
	delete(l.subs, sub)
	if !sub.closed {
		sub.closed = true
		close(sub.ch)
		r.subscribers--
	}
}

// Subscribe opens a subscription on a watchlist, replaying retained
// alerts with Seq > after before any live alert. Replay and attachment
// happen under one lock acquisition, so the stream has no gap and no
// duplicate around the catch-up/live boundary — the property the SSE
// reconnect test pins byte-for-byte.
func (r *Registry) Subscribe(id string, after uint64) (*Subscription, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lists[id]
	if !ok {
		return nil, ErrUnknown
	}
	// Capacity: full catch-up plus a full ring of live headroom.
	sub := &Subscription{r: r, listID: id, ch: make(chan Alert, 2*r.opts.AlertBuffer)}
	sub.C = sub.ch
	i := sort.Search(len(l.ring), func(j int) bool { return l.ring[j].Seq > after })
	for _, a := range l.ring[i:] {
		sub.ch <- a
		r.delivered++
	}
	l.subs[sub] = struct{}{}
	r.subscribers++
	return sub, nil
}

// Counters returns the registry's activity snapshot.
func (r *Registry) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Counters{
		Watchlists:      len(r.lists),
		AlertsFired:     r.fired,
		AlertsDelivered: r.delivered,
		AlertsDropped:   r.dropped,
		WebhookRetries:  r.retries,
		WebhookFailures: r.failures,
		SSESubscribers:  r.subscribers,
	}
}

// sortedUnique canonicalizes a string list: sorted, deduplicated,
// empties dropped. Returns nil for an empty result so persisted and
// fresh definitions compare equal.
func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	n := 0
	for i, s := range out {
		if s == "" || (i > 0 && s == out[i-1]) {
			continue
		}
		out[n] = s
		n++
	}
	if n == 0 {
		return nil
	}
	return out[:n]
}
