package watch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func art(id int, title string) Article {
	return Article{
		ID:     id,
		Source: "wire",
		Title:  title,
		Body:   "body of " + title,
		Score:  float64(id) * 0.25,
		Explanations: []Explanation{
			{Concept: "politics", CDR: 0.5, Pivot: "senate"},
			{Concept: "economy", CDR: 0.25},
		},
	}
}

func TestRegisterAssignsIDsAndCanonicalizes(t *testing.T) {
	r := NewRegistry(Options{})
	d1, err := r.Register(Definition{Name: "a", Concepts: []string{"b", "a", "b", ""}})
	if err != nil {
		t.Fatal(err)
	}
	if d1.ID != "w000001" {
		t.Fatalf("first ID = %q", d1.ID)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(d1.Concepts, want) {
		t.Fatalf("concepts = %v, want %v", d1.Concepts, want)
	}
	d2, _ := r.Register(Definition{Name: "b"})
	if d2.ID != "w000002" {
		t.Fatalf("second ID = %q", d2.ID)
	}
	if d2.Concepts != nil || d2.Sources != nil {
		t.Fatalf("empty lists should canonicalize to nil: %v %v", d2.Concepts, d2.Sources)
	}
}

func TestRegisterLimit(t *testing.T) {
	r := NewRegistry(Options{MaxWatchlists: 2})
	r.Register(Definition{})
	r.Register(Definition{})
	if _, err := r.Register(Definition{}); !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	// Removal frees a slot.
	if !r.Remove("w000001") {
		t.Fatal("remove failed")
	}
	if _, err := r.Register(Definition{}); err != nil {
		t.Fatalf("register after remove: %v", err)
	}
}

func TestGetListRemove(t *testing.T) {
	r := NewRegistry(Options{})
	d, _ := r.Register(Definition{Name: "x"})
	if _, _, ok := r.Get(d.ID); !ok {
		t.Fatal("Get missed registered list")
	}
	if _, _, ok := r.Get("w0000ff"); ok {
		t.Fatal("Get found unknown ID")
	}
	r.Register(Definition{Name: "y"})
	defs, seqs := r.List()
	if len(defs) != 2 || defs[0].Name != "x" || defs[1].Name != "y" {
		t.Fatalf("List = %+v", defs)
	}
	if seqs[0] != 0 || seqs[1] != 0 {
		t.Fatalf("fresh seqs = %v", seqs)
	}
	if r.Remove("nope") {
		t.Fatal("Remove of unknown ID succeeded")
	}
	if !r.Remove(d.ID) {
		t.Fatal("Remove failed")
	}
	if got := r.Counters().Watchlists; got != 1 {
		t.Fatalf("watchlists after remove = %d", got)
	}
}

// ring copies the alerts a watchlist retains, in sequence order.
func ring(r *Registry, id string) []Alert {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Alert(nil), r.lists[id].ring...)
}

func TestPublishSequencesAndReplay(t *testing.T) {
	r := NewRegistry(Options{AlertBuffer: 8})
	d, _ := r.Register(Definition{})
	r.Publish(d.ID, 3, []Article{art(0, "t0"), art(1, "t1")})
	r.Publish(d.ID, 4, []Article{art(2, "t2")})
	r.Publish("w0ghost", 4, []Article{art(9, "gone")}) // removed list: no-op

	alerts := ring(r, d.ID)
	if len(alerts) != 3 {
		t.Fatalf("len=%d", len(alerts))
	}
	for i, a := range alerts {
		if a.Seq != uint64(i+1) || a.Watchlist != d.ID {
			t.Fatalf("alert %d = %+v", i, a)
		}
	}
	if alerts[2].Generation != 4 || alerts[2].Article.Title != "t2" {
		t.Fatalf("last alert = %+v", alerts[2])
	}
	sub, err := r.Subscribe(d.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mid := <-sub.C; mid.Seq != 3 || len(sub.C) != 0 {
		t.Fatalf("catch-up after 2 = %+v, %d more", mid, len(sub.C))
	}
	sub.Cancel()
	if _, err := r.Subscribe("w0ghost", 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("subscribe unknown: %v", err)
	}
	if c := r.Counters(); c.AlertsFired != 3 {
		t.Fatalf("fired = %d", c.AlertsFired)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRegistry(Options{AlertBuffer: 3})
	d, _ := r.Register(Definition{WebhookURL: "http://example/hook"})
	var arts []Article
	for i := 0; i < 5; i++ {
		arts = append(arts, art(i, fmt.Sprintf("t%d", i)))
	}
	r.Publish(d.ID, 1, arts)
	if alerts := ring(r, d.ID); len(alerts) != 3 || alerts[0].Seq != 3 {
		t.Fatalf("after eviction: alerts=%+v", alerts)
	}
	c := r.Counters()
	if c.AlertsDropped != 2 {
		t.Fatalf("dropped = %d, want 2 (un-acked webhook evictions)", c.AlertsDropped)
	}
}

func TestSubscribeLiveAndCatchUp(t *testing.T) {
	r := NewRegistry(Options{AlertBuffer: 8})
	d, _ := r.Register(Definition{})
	r.Publish(d.ID, 1, []Article{art(0, "t0"), art(1, "t1")})

	sub, err := r.Subscribe(d.ID, 1) // skip seq 1
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	r.Publish(d.ID, 2, []Article{art(2, "t2")})

	var got []uint64
	for len(got) < 2 {
		select {
		case a := <-sub.C:
			got = append(got, a.Seq)
		case <-time.After(time.Second):
			t.Fatalf("timed out; got %v", got)
		}
	}
	if !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("seqs = %v, want [2 3]", got)
	}
	if c := r.Counters(); c.SSESubscribers != 1 {
		t.Fatalf("subscribers = %d", c.SSESubscribers)
	}
	sub.Cancel()
	if c := r.Counters(); c.SSESubscribers != 0 {
		t.Fatalf("subscribers after cancel = %d", c.SSESubscribers)
	}
	if _, err := r.Subscribe("w0ghost", 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("subscribe unknown: %v", err)
	}
}

func TestSubscribeRemoveClosesChannel(t *testing.T) {
	r := NewRegistry(Options{})
	d, _ := r.Register(Definition{})
	sub, _ := r.Subscribe(d.ID, 0)
	r.Remove(d.ID)
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed on Remove")
	}
	sub.Cancel() // safe after close
}

func TestLaggingSubscriberDropped(t *testing.T) {
	r := NewRegistry(Options{AlertBuffer: 2}) // channel capacity 4
	d, _ := r.Register(Definition{})
	sub, _ := r.Subscribe(d.ID, 0)
	var arts []Article
	for i := 0; i < 6; i++ {
		arts = append(arts, art(i, "t"))
	}
	r.Publish(d.ID, 1, arts) // overflows the unread channel
	// Drain: buffered alerts then close.
	n := 0
	for range sub.C {
		n++
	}
	if n != 4 {
		t.Fatalf("received %d before drop, want 4", n)
	}
	c := r.Counters()
	if c.SSESubscribers != 0 {
		t.Fatalf("subscribers = %d, want 0 after drop", c.SSESubscribers)
	}
	if c.AlertsDropped == 0 {
		t.Fatal("expected dropped count for lagging subscriber")
	}
}

func TestWebhookDelivery(t *testing.T) {
	r := NewRegistry(Options{})
	d, _ := r.Register(Definition{WebhookURL: "http://example/hook"})
	got := make(chan string, 16)
	r.StartWebhooks(WebhookOptions{Post: func(url string, body []byte) error {
		got <- string(body)
		return nil
	}})
	defer r.DrainWebhooks(context.Background())

	r.Publish(d.ID, 1, []Article{art(0, "t0"), art(1, "t1")})
	for i := 1; i <= 2; i++ {
		select {
		case body := <-got:
			want := fmt.Sprintf(`"seq":%d`, i)
			if !contains(body, want) {
				t.Fatalf("delivery %d body %s missing %s", i, body, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	waitFor(t, func() bool { return r.Counters().AlertsDelivered == 2 })
}

func TestWebhookRetryAndFailure(t *testing.T) {
	r := NewRegistry(Options{})
	d, _ := r.Register(Definition{WebhookURL: "http://example/hook"})
	calls := 0
	done := make(chan struct{})
	r.StartWebhooks(WebhookOptions{
		Attempts: 3,
		Backoff:  time.Millisecond,
		Post: func(url string, body []byte) error {
			calls++
			if calls == 3 {
				close(done)
			}
			return errors.New("refused")
		},
	})
	defer r.DrainWebhooks(context.Background())
	r.Publish(d.ID, 1, []Article{art(0, "t0")})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("worker made %d attempts, want 3", calls)
	}
	waitFor(t, func() bool {
		c := r.Counters()
		return c.WebhookRetries == 3 && c.WebhookFailures == 1
	})
	// Cursor did not advance: a later kick retries the same alert.
	if _, seq, _ := r.Get(d.ID); seq != 1 {
		t.Fatalf("latest seq = %d", seq)
	}
	if alerts := ring(r, d.ID); len(alerts) != 1 {
		t.Fatalf("alert vanished: %v", alerts)
	}
}

func TestWebhookDrainStopsBackoff(t *testing.T) {
	r := NewRegistry(Options{})
	d, _ := r.Register(Definition{WebhookURL: "http://example/hook"})
	r.StartWebhooks(WebhookOptions{
		Attempts: 10,
		Backoff:  time.Hour, // drain must interrupt this
		Post:     func(string, []byte) error { return errors.New("down") },
	})
	r.Publish(d.ID, 1, []Article{art(0, "t0")})
	time.Sleep(10 * time.Millisecond) // let the first attempt fail into backoff
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := r.DrainWebhooks(ctx); err != nil {
		t.Fatalf("drain blocked on backoff: %v", err)
	}
}

func TestDrainWithoutStartIsNoop(t *testing.T) {
	r := NewRegistry(Options{})
	if err := r.DrainWebhooks(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
