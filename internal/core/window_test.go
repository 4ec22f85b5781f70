package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ncexplorer/internal/kg"
)

// windowCase is one drill-down listing the window memo tests page
// through: a query and the options every page of it shares.
type windowCase struct {
	name string
	q    Query
	opts DrillDownOptions
}

// windowCases covers one and two concepts, every K class of the
// window key ({1, 10, 128} share a window, 200 has its own), a score
// floor, both ablation toggles and two time windows. The one-concept
// query is the broadest concept, whose candidates outnumber 128: its
// shortlist is cut, so K's class and NoSpecificity choose which
// concepts the window holds.
func windowCases(t *testing.T) []windowCase {
	t.Helper()
	g, meta, _, e := world(t)
	one := Query{broadestConcepts(e, 1)[0]}
	var two Query
	for _, topic := range meta.Topics {
		if q := (Query{topic.Concept, topic.GroupConcept}); len(e.MatchedDocs(q)) >= 4 {
			two = q
			break
		}
	}
	if two == nil {
		t.Skip("no two-concept topic with enough matches")
	}
	// Two time windows over one's matches: the middle half and the
	// first half.
	st := e.state()
	var times []int64
	for _, d := range st.matchedDocs(one) {
		times = append(times, st.snap.Doc(d).PublishedAt)
	}
	slices.Sort(times)
	mid := &TimeRange{Min: times[len(times)/4], Max: times[3*len(times)/4]}
	early := &TimeRange{Min: times[0], Max: times[len(times)/2]}
	full, err := e.DrillDownPage(context.Background(), one, DrillDownOptions{K: 128})
	if err != nil || len(full.Results) < 3 {
		t.Fatalf("drill-down of %v: %d results, err %v", one, len(full.Results), err)
	}
	if wide, _ := e.DrillDownPage(context.Background(), one, DrillDownOptions{K: 200}); wide.Total <= full.Total {
		t.Fatalf("%s has %d candidates; the cases need more than 128", g.Name(one[0]), wide.Total)
	}
	floor := full.Results[2].Score

	var cases []windowCase
	for _, k := range []int{1, 10, 128, 200} {
		for _, c := range []windowCase{
			{"one", one, DrillDownOptions{}},
			{"two", two, DrillDownOptions{}},
			{"floor", one, DrillDownOptions{MinScore: floor}},
			{"nospec", one, DrillDownOptions{NoSpecificity: true}},
			{"nodiv", one, DrillDownOptions{NoDiversity: true}},
			{"nospec-nodiv", two, DrillDownOptions{NoSpecificity: true, NoDiversity: true}},
			{"time-mid", one, DrillDownOptions{Time: mid}},
			{"time-early", one, DrillDownOptions{Time: early}},
		} {
			c.name = fmt.Sprintf("%s/k%d", c.name, k)
			c.opts.K = k
			cases = append(cases, c)
		}
	}
	return cases
}

// pageJSON renders a page for byte comparison: JSON writes every float
// in its shortest round-trip form, so equal bytes mean equal bits.
func pageJSON(t *testing.T, p DrillDownPage) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// coldPage is a page computed from a window built for it alone: the
// memo is dropped first, and the call must count as a miss.
func coldPage(t *testing.T, e *Engine, q Query, opts DrillDownOptions) DrillDownPage {
	t.Helper()
	e.ResetQueryCaches()
	misses := e.CacheStats().DrillDownWindows.Misses
	p, err := e.DrillDownPage(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CacheStats().DrillDownWindows.Misses; got != misses+1 {
		t.Fatalf("a page after ResetQueryCaches counted %d misses, want 1", got-misses)
	}
	return p
}

// TestDrillDownWindowMemoMatchesCold: every page a warm engine ranks
// from its memoised windows equals, byte for byte, the page a cold
// engine computes for that call alone — at every offset from 0 to
// Total+1, for every case of windowCases.
func TestDrillDownWindowMemoMatchesCold(t *testing.T) {
	g, _, c, warm := world(t)
	cold := NewEngine(g, Options{Seed: 11, Samples: 20})
	cold.IndexCorpus(c)
	ctx := context.Background()
	for _, wc := range windowCases(t) {
		t.Run(wc.name, func(t *testing.T) {
			hits := warm.CacheStats().DrillDownWindows.Hits
			total := -1
			for off := 0; off <= total+1 || total < 0; off++ {
				opts := wc.opts
				opts.Offset = off
				got, err := warm.DrillDownPage(ctx, wc.q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := coldPage(t, cold, wc.q, opts)
				if g, w := pageJSON(t, got), pageJSON(t, want); g != w {
					t.Fatalf("offset %d: warm page\n%s\ncold page\n%s", off, g, w)
				}
				total = want.Total
			}
			if warm.CacheStats().DrillDownWindows.Hits-hits < int64(total+1) {
				t.Fatalf("%d pages ranked from %d memo hits", total+2, warm.CacheStats().DrillDownWindows.Hits-hits)
			}
			// The memoised window itself, order included (it breaks
			// score ties), is the one this case computes.
			st := warm.state()
			memo, ok := st.windows.get(newWindowKey(wc.q, wc.opts))
			fresh, err := st.drillDownWindow(ctx, wc.q, wc.opts)
			if !ok || err != nil || !slices.Equal(memo, fresh) {
				t.Fatalf("memoised window (held %v) differs from a fresh one (err %v)", ok, err)
			}
		})
	}
}

// TestDrillDownWindowNotStaleAfterIngest: a window memoised before an
// ingest never answers after it — the next page is the new
// generation's, and equal to a cold one.
func TestDrillDownWindowNotStaleAfterIngest(t *testing.T) {
	g, _, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 11, Samples: 20})
	e.IndexCorpus(c)
	ctx := context.Background()
	q := pageQuery(t)
	opts := DrillDownOptions{K: 10}
	before, err := e.DrillDownPage(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(ctx, ingestBatch(t, 5252, 40)); err != nil {
		t.Fatal(err)
	}
	after, err := e.DrillDownPage(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation <= before.Generation {
		t.Fatalf("page after ingest at generation %d, before it %d", after.Generation, before.Generation)
	}
	if pageJSON(t, after) == pageJSON(t, before) {
		t.Fatal("ingest left the listing unchanged; the batch cannot tell a stale window")
	}
	if g, w := pageJSON(t, after), pageJSON(t, coldPage(t, e, q, opts)); g != w {
		t.Fatalf("page after ingest\n%s\ncold page\n%s", g, w)
	}
}

// TestDrillDownWindowSurvivesMerge: a merge republishes the same
// generation, so its state keeps the memoised windows.
func TestDrillDownWindowSurvivesMerge(t *testing.T) {
	g, _, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 100})
	e.IndexCorpus(c)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Ingest(ctx, ingestBatch(t, 6100+uint64(i), 7)); err != nil {
			t.Fatal(err)
		}
	}
	q := pageQuery(t)
	opts := DrillDownOptions{K: 10}
	before, err := e.DrillDownPage(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := e.state()
	e.opts.MaxSegments = 1
	e.mergeSegments()
	if e.state() == st || e.state().snap.Generation != st.snap.Generation {
		t.Fatal("no merge at the same generation happened")
	}
	cs := e.CacheStats().DrillDownWindows
	after, err := e.DrillDownPage(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CacheStats().DrillDownWindows; got.Hits != cs.Hits+1 || got.Misses != cs.Misses {
		t.Fatalf("page after the merge: %+v, before it %+v; want one more hit", got, cs)
	}
	if pageJSON(t, after) != pageJSON(t, before) {
		t.Fatal("page changed across a merge")
	}
}

// TestDrillDownWindowConcurrentPaging pages one listing from many
// goroutines on a cold engine, so misses race to fill the same key and
// hits read windows other goroutines stored; every page must equal the
// serial pass. Meant for -race.
func TestDrillDownWindowConcurrentPaging(t *testing.T) {
	g, _, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 11, Samples: 20})
	e.IndexCorpus(c)
	ctx := context.Background()
	q := pageQuery(t)
	const k = 4
	first, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	pages := first.Total/k + 2
	want := make([]string, pages)
	for p := range want {
		want[p] = pageJSON(t, coldPage(t, e, q, DrillDownOptions{K: k, Offset: p * k}))
	}
	e.ResetQueryCaches()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*pages; i++ {
				p := (i + w) % pages
				page, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: k, Offset: p * k})
				if err != nil {
					errs <- err
					return
				}
				b, _ := json.Marshal(page)
				if string(b) != want[p] {
					errs <- fmt.Errorf("worker %d, page %d: %s, want %s", w, p, b, want[p])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := e.CacheStats().DrillDownWindows.Entries; n != 1 {
		t.Fatalf("one listing left %d windows, want 1", n)
	}
}

// TestDrillDownWindowCancelledHit: a memo hit still answers a
// cancelled context with its error and no results.
func TestDrillDownWindowCancelledHit(t *testing.T) {
	_, _, _, e := world(t)
	q := pageQuery(t)
	if _, err := e.DrillDownPage(context.Background(), q, DrillDownOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	page, err := e.DrillDownPage(ctx, q, DrillDownOptions{K: 5})
	if err != context.Canceled || len(page.Results) != 0 {
		t.Fatalf("cancelled hit = %d results, err %v; want none and context.Canceled", len(page.Results), err)
	}
}

// TestWindowMemoBound: the memo never holds more than maxWindows
// windows, a put is always served until another key takes its slot,
// and reset drops everything.
func TestWindowMemoBound(t *testing.T) {
	var wm windowMemo
	for i := 0; i < 4*maxWindows; i++ {
		k := windowKey{q: fmt.Sprint(i), size: 128}
		wm.put(k, ddWindow{{c: kg.NodeID(i)}})
		if w, ok := wm.get(k); !ok || w[0].c != kg.NodeID(i) {
			t.Fatalf("window %d not served right after its put", i)
		}
	}
	if n := wm.len(); n > maxWindows || n < maxWindows/2 {
		t.Fatalf("memo holds %d windows, want at most %d and most slots used", n, maxWindows)
	}
	// Keys differing in one field only must not share a window.
	a := windowKey{q: "a", size: 128}
	b := a
	b.noSpec = true
	wm.put(a, ddWindow{{c: 1}})
	wm.put(b, ddWindow{{c: 2}})
	if w, ok := wm.get(a); ok && w[0].c != 1 {
		t.Fatal("a key was served another key's window")
	}
	wm.reset()
	if n := wm.len(); n != 0 {
		t.Fatalf("reset left %d windows", n)
	}
	if _, ok := wm.get(b); ok {
		t.Fatal("a window survived reset")
	}
}
