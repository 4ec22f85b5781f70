package ncexplorer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/watch"
)

// The standing-query determinism property: an alert fires for batch N
// exactly when a from-scratch query over generation N matches where
// generation N−1 did not, and the alert's payload (score, evidence) is
// byte-identical to what the stateless query reports for that article
// at generation N. The test replays randomized ingest schedules and
// checks every watchlist against the stateless reference at every
// generation.

// popularConcepts returns the n concept names with the most seed-corpus
// matches — patterns worth watching, so random batches actually alert.
func popularConcepts(t testing.TB, x *Explorer, n int) []string {
	t.Helper()
	type cand struct {
		name  string
		total int
	}
	var cands []cand
	x.g.Concepts(func(c kg.NodeID) bool {
		name := x.g.Name(c)
		res, err := x.RollUpQuery(context.Background(), RollUpRequest{Concepts: []string{name}, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total > 0 {
			cands = append(cands, cand{name, res.Total})
		}
		return true
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].total != cands[j].total {
			return cands[i].total > cands[j].total
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) < n {
		t.Fatalf("only %d matched concepts in the tiny world, need %d", len(cands), n)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = cands[i].name
	}
	return out
}

// statelessMatches runs the full from-scratch query a watchlist
// corresponds to and returns the matched article IDs (ascending) and
// the article payloads by ID.
func statelessMatches(t testing.TB, x *Explorer, wl Watchlist) (map[int]Article, []int) {
	t.Helper()
	res, err := x.RollUpQuery(context.Background(), RollUpRequest{
		Concepts: wl.Concepts,
		K:        x.NumArticles(),
		Sources:  wl.Sources,
		MinScore: wl.MinScore,
		Explain:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]Article, len(res.Articles))
	ids := make([]int, 0, len(res.Articles))
	for _, a := range res.Articles {
		byID[a.ID] = a
		ids = append(ids, a.ID)
	}
	sort.Ints(ids)
	return byID, ids
}

// TestWatchIncrementalMatchesStatelessReference runs the property over
// a monolith and over one shard of a two-shard cluster, whose document
// IDs have a gap below its slice and whose reference is its own
// roll-up.
func TestWatchIncrementalMatchesStatelessReference(t *testing.T) {
	for _, w := range []struct {
		name string
		cfg  Config
	}{
		{"monolith", Config{Scale: "tiny", Seed: 42, AlertBuffer: 8192}},
		{"shard", Config{Scale: "tiny", Seed: 42, AlertBuffer: 8192, ShardCount: 2, Shard: 1}},
	} {
		t.Run(w.name, func(t *testing.T) { checkWatchMatchesStatelessReference(t, w.cfg) })
	}
}

// retainedAlerts returns the alerts a watchlist retains, in sequence
// order: the catch-up a subscription from cursor 0 receives.
func retainedAlerts(x *Explorer, id string) ([]Alert, error) {
	sub, err := x.WatchSubscribe(id, 0)
	if err != nil {
		return nil, err
	}
	defer sub.Cancel()
	var out []Alert
	for {
		select {
		case a := <-sub.C:
			out = append(out, a)
		default:
			return out, nil
		}
	}
}

func checkWatchMatchesStatelessReference(t *testing.T, cfg Config) {
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := popularConcepts(t, x, 5)
	srcs := SourceNames()
	specs := []WatchlistSpec{
		{Name: "plain", Concepts: pool[:1]},
		{Name: "scored", Concepts: pool[1:2], MinScore: 0.05},
		{Name: "pair", Concepts: []string{pool[0], pool[2]}},
		{Name: "sourced", Concepts: pool[3:4], Sources: srcs[:1]},
	}
	var wls []Watchlist
	for _, spec := range specs {
		wl, err := x.RegisterWatchlist(spec)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}

	// expected[id] accumulates the reference alerts per watchlist, in
	// fire order: (generation, article) pairs.
	type refAlert struct {
		gen uint64
		art Article
	}
	expected := make(map[string][]refAlert)
	rng := rand.New(rand.NewSource(7))

	for batch := 0; batch < 12; batch++ {
		if batch == 5 {
			// A watchlist registered mid-schedule sees later batches only —
			// the CreatedGen pin.
			late, err := x.RegisterWatchlist(WatchlistSpec{Name: "late", Concepts: pool[:1]})
			if err != nil {
				t.Fatal(err)
			}
			if late.CreatedGeneration != x.Generation() {
				t.Fatalf("late CreatedGeneration = %d, generation = %d", late.CreatedGeneration, x.Generation())
			}
			wls = append(wls, late)
		}
		// Pre-ingest matched sets pin the "where generation N−1 did not"
		// half of the property for the unfiltered watchlists.
		preIDs := make(map[string]map[int]bool)
		for _, wl := range wls {
			if wl.MinScore == 0 && len(wl.Sources) == 0 {
				_, ids := statelessMatches(t, x, wl)
				set := make(map[int]bool, len(ids))
				for _, id := range ids {
					set[id] = true
				}
				preIDs[wl.ID] = set
			}
		}
		// The batch's first global ID: the local documents plus, on a
		// shard, the documents its peers hold.
		prevDocs := x.NumArticles() + x.engine.RemoteStatsSnapshot().Docs
		arts, err := x.SampleArticles(1000+uint64(batch), 1+rng.Intn(20))
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.Ingest(context.Background(), arts)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range wls {
			byID, ids := statelessMatches(t, x, wl)
			var fresh []int
			for _, id := range ids {
				if id >= prevDocs {
					fresh = append(fresh, id)
				}
			}
			// Definition-1 matching is per-document: no pre-existing article
			// may enter or leave the matched set because the batch landed.
			if pre, ok := preIDs[wl.ID]; ok {
				old := 0
				for _, id := range ids {
					if id < prevDocs {
						old++
						if !pre[id] {
							t.Fatalf("gen %d: %s: old doc %d newly matched — delta evaluation would miss it",
								res.Generation, wl.Name, id)
						}
					}
				}
				if old != len(pre) {
					t.Fatalf("gen %d: %s: %d old docs matched, %d before the batch — an old doc left the matched set",
						res.Generation, wl.Name, old, len(pre))
				}
			}
			for _, id := range fresh {
				expected[wl.ID] = append(expected[wl.ID], refAlert{gen: res.Generation, art: byID[id]})
			}
		}
	}
	x.Quiesce()

	for _, wl := range wls {
		alerts, err := retainedAlerts(x, wl.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := expected[wl.ID]
		if len(alerts) != len(want) {
			t.Fatalf("%s: %d alerts fired, reference says %d", wl.Name, len(alerts), len(want))
		}
		if wl.Name == "plain" && len(alerts) == 0 {
			t.Fatal("schedule fired no alerts for the most popular concept — the property was never exercised")
		}
		for i, a := range alerts {
			if a.Seq != uint64(i+1) {
				t.Fatalf("%s: alert %d has seq %d — sequences must be contiguous from 1", wl.Name, i, a.Seq)
			}
			if a.Generation != want[i].gen {
				t.Fatalf("%s: alert %d fired at generation %d, reference at %d", wl.Name, i, a.Generation, want[i].gen)
			}
			got, err1 := json.Marshal(a.Article)
			ref, err2 := json.Marshal(want[i].art)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s: alert %d payload diverges from the stateless query:\nalert: %s\n  ref: %s",
					wl.Name, i, got, ref)
			}
		}
	}
}

// TestWatchMinScoreInclusive: a watchlist's floor keeps a match
// scoring exactly MinScore. Two identical worlds take the same batch;
// the second watches with its floor set to a score the first one's
// alerts report, so the equality is reached exactly.
func TestWatchMinScoreInclusive(t *testing.T) {
	run := func(floor float64) []float64 {
		x, err := New(Config{Scale: "tiny", Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// The most popular concept is the root, which scores 0 everywhere
		// (no specificity); the runner-up scores.
		wl, err := x.RegisterWatchlist(WatchlistSpec{Name: "floor", Concepts: popularConcepts(t, x, 2)[1:], MinScore: floor})
		if err != nil {
			t.Fatal(err)
		}
		arts, err := x.SampleArticles(1300, 40)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Ingest(context.Background(), arts); err != nil {
			t.Fatal(err)
		}
		x.Quiesce()
		alerts, err := retainedAlerts(x, wl.ID)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, len(alerts))
		for i, a := range alerts {
			scores[i] = a.Article.Score
		}
		return scores
	}
	all := run(0)
	if len(all) < 2 {
		t.Fatalf("the batch fired %d alerts; need two to place a floor", len(all))
	}
	floor := all[len(all)/2]
	if floor <= 0 {
		t.Fatalf("floor %g does not filter", floor)
	}
	var want []float64
	for _, s := range all {
		if s >= floor {
			want = append(want, s)
		}
	}
	if got := run(floor); !reflect.DeepEqual(got, want) {
		t.Fatalf("floor %g: alert scores %v, want %v", floor, got, want)
	}
}

// TestWatchStateSurvivesRestart: watchlists, sequence counters, alert
// rings, and webhook delivery cursors all round-trip through
// Save → Open, and delivery resumes from the persisted cursor with no
// alert lost or duplicated.
func TestWatchStateSurvivesRestart(t *testing.T) {
	x, err := New(Config{Scale: "tiny", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pool := popularConcepts(t, x, 2)
	hooked, err := x.RegisterWatchlist(WatchlistSpec{
		Name: "hooked", Concepts: pool[:1], WebhookURL: "http://example/hook",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RegisterWatchlist(WatchlistSpec{Name: "idle", Concepts: pool[1:2]}); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		arts, err := x.SampleArticles(2000+uint64(batch), 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Ingest(context.Background(), arts); err != nil {
			t.Fatal(err)
		}
	}
	x.Quiesce()
	alerts, err := retainedAlerts(x, hooked.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) < 3 {
		t.Fatalf("schedule fired %d alerts, need ≥3 to exercise a mid-ring cursor", len(alerts))
	}

	// Deliver exactly two alerts, then have the endpoint go down: the
	// cursor sticks at 2, un-acked for everything after.
	delivered := make(chan uint64, len(alerts))
	x.watch.StartWebhooks(watch.WebhookOptions{
		Attempts: 1,
		Post: func(url string, body []byte) error {
			var a Alert
			if err := json.Unmarshal(body, &a); err != nil {
				return err
			}
			if a.Seq > 2 {
				return fmt.Errorf("endpoint down")
			}
			delivered <- a.Seq
			return nil
		},
	})
	waitForCond(t, func() bool { return len(delivered) == 2 })
	if err := x.DrainWebhooks(context.Background()); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Definitions, sequence counters, and rings are identical.
	if got, want := y.ListWatchlists(), x.ListWatchlists(); !jsonEqual(t, got, want) {
		t.Fatalf("watchlists diverge after restart:\n%+v\n%+v", got, want)
	}
	for _, wl := range x.ListWatchlists() {
		ga, err1 := retainedAlerts(y, wl.ID)
		wa, err2 := retainedAlerts(x, wl.ID)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !jsonEqual(t, ga, wa) {
			t.Fatalf("ring for %s diverges after restart", wl.ID)
		}
	}

	// The reopened explorer resumes webhook delivery from the persisted
	// cursor: alerts 3..n exactly once, in order — the two already
	// acknowledged are not re-sent, none are skipped.
	resumed := make(chan uint64, len(alerts))
	y.watch.StartWebhooks(watch.WebhookOptions{
		Post: func(url string, body []byte) error {
			var a Alert
			if err := json.Unmarshal(body, &a); err != nil {
				return err
			}
			resumed <- a.Seq
			return nil
		},
	})
	waitForCond(t, func() bool { return len(resumed) == len(alerts)-2 })
	if err := y.DrainWebhooks(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(resumed)
	next := uint64(3)
	for seq := range resumed {
		if seq != next {
			t.Fatalf("resumed delivery sent seq %d, want %d", seq, next)
		}
		next++
	}
	if next != uint64(len(alerts))+1 {
		t.Fatalf("resumed delivery stopped at %d, want through %d", next-1, len(alerts))
	}

	// A registration after reload continues the ID sequence — IDs stay
	// unique across restarts.
	wl3, err := y.RegisterWatchlist(WatchlistSpec{Concepts: pool[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, prev := range x.ListWatchlists() {
		if wl3.ID == prev.ID {
			t.Fatalf("reused watchlist ID %s after restart", wl3.ID)
		}
	}
}

// TestWatchRegistrationCheckpointed: with a checkpoint directory
// configured, a registration is durable immediately — no ingest or
// explicit Save needed — and an ingest's alerts are in the same
// checkpoint as the batch that fired them.
func TestWatchRegistrationCheckpointed(t *testing.T) {
	x, err := New(Config{Scale: "tiny", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	x.CheckpointTo(dir)
	pool := popularConcepts(t, x, 1)
	wl, err := x.RegisterWatchlist(WatchlistSpec{Name: "durable", Concepts: pool})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := x.SampleArticles(3000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Ingest(context.Background(), arts); err != nil {
		t.Fatal(err)
	}
	x.Quiesce()

	// Reopen from the checkpoints alone — no final Save.
	y, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := y.ListWatchlists(), x.ListWatchlists(); !jsonEqual(t, got, want) {
		t.Fatalf("checkpointed watchlists diverge:\n%+v\n%+v", got, want)
	}
	ga, err1 := retainedAlerts(y, wl.ID)
	wa, err2 := retainedAlerts(x, wl.ID)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !jsonEqual(t, ga, wa) {
		t.Fatal("checkpointed batch lost its alerts — batch and alerts must persist together")
	}

	// Removal is checkpointed too.
	if err := x.RemoveWatchlist(wl.ID); err != nil {
		t.Fatal(err)
	}
	z, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.GetWatchlist(wl.ID); err == nil {
		t.Fatal("removed watchlist survived the checkpoint")
	}
}

func waitForCond(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func jsonEqual(t testing.TB, a, b any) bool {
	t.Helper()
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	return bytes.Equal(ja, jb)
}
