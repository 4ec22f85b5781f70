package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"ncexplorer"
)

// readerObs is what the reader learned from one answer.
type readerObs struct {
	op         *op
	generation uint64
	total      int
}

// liveWindow is live_feed's timed window and crash phase: a feeder
// posts batches on a fixed schedule (open loop, timed from due time)
// while one closed-loop connection replays dashboard_hot's stream and
// SSE subscribers follow four watchlists; then the server is killed and
// reopened on what it had acknowledged.
func liveWindow(cfg runConfig, spec *workloadSpec, fx *fixture, res *workloadResult) (*windowObs, error) {
	base := fx.dep.queryURL()
	mk := func() stream { return newHotStream(cfg.seed, fx.pops) }
	win := &windowObs{stream: mk, extra: make(map[string]metric)}

	// Inputs for the whole phase are made before it starts, so the
	// generator spends the window sending, not synthesising.
	nBatches := int(cfg.window.Seconds() * feedRate)
	bodies := make([][]byte, nBatches)
	for i := range bodies {
		arts, body, err := fx.src.batch(feedDocs)
		if err != nil {
			return nil, err
		}
		win.feed = append(win.feed, arts)
		bodies[i] = body
	}

	ids := make([]string, watchlists)
	for i := range ids {
		spec, _ := json.Marshal(ncexplorer.WatchlistSpec{
			Name:     fmt.Sprintf("bench-%d", i),
			Concepts: []string{fx.pops.broad[(10+i*len(fx.pops.broad)/watchlists)%len(fx.pops.broad)]},
		})
		status, body, err := post(probeClient, base+"/v2/watchlists", spec)
		if err != nil || status != 201 {
			return nil, fmt.Errorf("register watchlist: status %d, err %v: %s", status, err, body)
		}
		var wl ncexplorer.Watchlist
		if err := json.Unmarshal(body, &wl); err != nil {
			return nil, err
		}
		ids[i] = wl.ID
	}
	sub, err := subscribe(base, ids)
	if err != nil {
		return nil, err
	}

	s := mk()
	t := time.Now()
	warm := closedLoop(base, s, 1, warmUp, nil)
	res.Phases["warm_up"] = time.Since(t).Seconds()
	if len(warm.failures) > 0 {
		sub.close()
		return nil, fmt.Errorf("warm-up: %s", warm.failures[0])
	}

	var (
		acks   []ack
		load   *loadResult
		obs    []readerObs
		lateUs []float64
	)
	observe := func(o *op, body []byte) {
		obs = append(obs, readerObs{op: o,
			generation: uint64(jsonUint(body, `"generation":`)), total: int(jsonUint(body, `"total":`))})
	}
	t = time.Now()
	err = win.measure(fx.dep, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			acks, lateUs = feed(base, bodies, feedDocs, feedRate)
		}()
		go func() {
			defer wg.Done()
			load = closedLoop(base, s, 1, cfg.window, observe)
		}()
		wg.Wait()
	})
	if err != nil {
		sub.close()
		return nil, err
	}
	res.Phases["window"] = time.Since(t).Seconds()

	// Alerts trail the last acknowledgement by a moment; wait until the
	// subscribers have as many as the server says it fired.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if win.after, err = fx.dep.serverStats(); err != nil {
			sub.close()
			return nil, err
		}
		fired := win.after[0].Index.Watch.AlertsFired - win.before[0].Index.Watch.AlertsFired
		sub.mu.Lock()
		got := int64(len(sub.alerts))
		sub.mu.Unlock()
		if got >= fired || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	alerts, subErrs := sub.close()

	win.samples = load.samples
	win.okReqs = res.absorb(load, cfg.window)
	latencyMetrics(res, load.samples, cfg.window)

	// Feed accounting.
	acked := 0
	var ackMs []float64
	sentAt := make(map[uint64]time.Time) // generation a batch produced → when it was posted
	for i, a := range acks {
		res.check(a.ok, "feed batch %d not acknowledged", i)
		if a.ok {
			acked += a.docs
			ackMs = append(ackMs, float64(a.lat)/float64(time.Millisecond))
			sentAt[a.generation] = a.sent
		}
	}
	sort.Float64s(ackMs)
	win.extra["ingest.ack_p50_ms"] = metric{Value: percentile(ackMs, 50), Unit: "ms", N: len(ackMs)}
	win.extra["ingest.ack_p90_ms"] = metric{Value: percentile(ackMs, 90), Unit: "ms", N: len(ackMs)}
	win.extra["ingest.stall_max_ms"] = metric{Value: percentile(ackMs, 100), Unit: "ms", N: len(ackMs)}

	// The reader must never see a query's total shrink as generations
	// advance: the corpus is append-only.
	last := make(map[*op]readerObs)
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].generation < obs[j].generation })
	for _, o := range obs {
		if prev, ok := last[o.op]; ok {
			res.check(o.total >= prev.total, "%s total fell from %d (generation %d) to %d (generation %d)",
				o.op.steps[0].body, prev.total, prev.generation, o.total, o.generation)
		}
		last[o.op] = o
	}

	// Requests sent just after an acknowledgement meet cold caches.
	var postSwap []float64
	ackAt := make([]time.Duration, 0, len(acks))
	for _, a := range acks {
		ackAt = append(ackAt, a.due+a.lat)
	}
	for _, sm := range load.samples {
		i := sort.Search(len(ackAt), func(i int) bool { return ackAt[i] > sm.at })
		if sm.ok && i > 0 && sm.at-ackAt[i-1] < 50*time.Millisecond {
			postSwap = append(postSwap, float64(sm.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(postSwap)
	win.extra["reader.post_swap_p99_ms"] = metric{Value: percentile(postSwap, 99), Unit: "ms", N: len(postSwap)}
	// The feeder's own lateness must be small beside the acknowledgement
	// times it measures (tens of milliseconds). With some eighty sends
	// the 99th percentile is nearly the maximum, and one descheduled
	// millisecond on a shared box is not a broken generator; a median
	// over a millisecond is.
	sort.Float64s(lateUs)
	late50 := percentile(lateUs, 50)
	win.extra["gen.late_p50_us"] = metric{Value: late50, Unit: "us", N: len(lateUs)}
	win.extra["gen.late_p99_us"] = metric{Value: percentile(lateUs, 99), Unit: "us", N: len(lateUs)}
	if late50 > 1000 {
		res.Invalid = fmt.Sprintf("the feeder's sends ran late: gen.late_p50_us = %.0f > 1000", late50)
	}

	// Alerts: none lost, none duplicated, and the count the server kept.
	for _, e := range subErrs {
		res.check(false, "%s", e)
	}
	fired := win.after[0].Index.Watch.AlertsFired - win.before[0].Index.Watch.AlertsFired
	res.check(int64(len(alerts)) == fired, "subscribers received %d alerts, server fired %d", len(alerts), fired)
	nextSeq := make([]uint64, watchlists)
	var lagMs []float64
	for _, a := range alerts { // per-stream arrival order is preserved
		nextSeq[a.watchlist]++
		res.check(a.seq == nextSeq[a.watchlist], "watchlist %d: alert sequence %d where %d was due", a.watchlist, a.seq, nextSeq[a.watchlist])
		if sent, ok := sentAt[a.generation]; ok {
			lagMs = append(lagMs, float64(a.at.Sub(sent))/float64(time.Millisecond))
		}
	}
	sort.Float64s(lagMs)
	win.extra["watch.alerts"] = metric{Value: float64(len(alerts)), Unit: "count"}
	win.extra["watch.alert_lag_p50_ms"] = metric{Value: percentile(lagMs, 50), Unit: "ms", N: len(lagMs)}

	// Durable acknowledgement means nothing acknowledged is lost: not
	// while running, and not across a kill.
	win.articles = fx.docs + acked
	res.check(win.after[0].Index.Articles == win.articles,
		"before the kill the server holds %d articles, want %d", win.after[0].Index.Articles, win.articles)
	rss, err := fx.dep.rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd["rss_peak_mb"] = metric{Value: rss, Unit: "MB", N: 1}

	t = time.Now()
	boots := make([]time.Duration, reopens)
	for i := range boots {
		if err := fx.dep.stop(syscall.SIGKILL); err != nil {
			return nil, err
		}
		if boots[i], err = fx.dep.start(); err != nil {
			return nil, fmt.Errorf("reopen %d after kill: %w", i, err)
		}
		n, err := fx.dep.articles()
		if err != nil {
			return nil, err
		}
		res.check(n == win.articles, "reopen %d after kill holds %d articles, want %d", i, n, win.articles)
	}
	res.Phases["crash"] = time.Since(t).Seconds()
	res.EndToEnd["reopen_s"] = durMetric(boots)
	return win, nil
}
