package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ncexplorer"
	"ncexplorer/internal/cluster"
	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
	"ncexplorer/internal/nlp"
	"ncexplorer/internal/qcache"
	"ncexplorer/internal/segio"
	"ncexplorer/internal/server"
)

// The traced run recovers, from outside the program, how a request's
// time divides among the layers. The same request prefix is replayed in
// separate passes — HTTP handler, facade, engine — each on a fresh
// open of the same snapshot, so caches evolve identically and a span in
// one pass brackets the same work as its child in the next. A layer's
// self time is its span minus its children's for the same request.

// span is one timed call into a layer.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects spans in memory; they are written out when the run
// ends. A nil tracer times nothing, which is the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) span(name string, req int, parent string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Since(t.t0)
	f()
	t.spans = append(t.spans, span{Name: name, Req: req, StartNs: int64(start), EndNs: int64(time.Since(t.t0)), Parent: parent})
}

// byReq indexes one span name's durations by request.
func (t *tracer) byReq(name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] = s.dur()
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes subtracts, request by request, the children's durations
// from the parent's. A request with no child span keeps its whole
// duration (a cache hit never reaches the next layer).
func selfTimes(parent map[int]time.Duration, children ...map[int]time.Duration) map[int]time.Duration {
	out := make(map[int]time.Duration, len(parent))
	for req, d := range parent {
		for _, c := range children {
			d -= c[req]
		}
		out[req] = d
	}
	return out
}

// medianOf reports a span set's median in unit, with its sample count.
func medianOf(ds map[int]time.Duration, unit time.Duration, unitName string, keep func(req int) bool) metric {
	var vs []float64
	for req, d := range ds {
		if keep == nil || keep(req) {
			vs = append(vs, float64(d)/float64(unit))
		}
	}
	return metric{Value: median(vs), Unit: unitName, N: len(vs)}
}

const (
	// tracePrefix is how many requests of the workload's stream each
	// query pass replays.
	tracePrefix = 2000
	// traceBatches is how many backfill batches the write-path passes
	// replay.
	traceBatches = 8
	// traceWatchlists is the standing-query load of the watch pass.
	traceWatchlists = 16
	// traceOpens is how many times the snapshot is opened for
	// persist.open_ms; the median is reported.
	traceOpens = 3
)

// tracedRun fills res.Layers from in-process passes plus what the
// process-level window observed, and writes the span file.
func tracedRun(cfg runConfig, spec *workloadSpec, fx *fixture, win *windowObs, res *workloadResult, runDir string) error {
	t := time.Now()
	tr := newTracer()
	L := res.Layers

	// What only the real processes can tell.
	L["server.cpu_us_per_req"] = metric{Value: win.cpu / float64(max(1, win.okReqs)) * 1e6, Unit: "us", N: win.okReqs}
	L["gen.cpu_share"] = metric{Value: win.selfCPU / cfg.window.Seconds(), Unit: "cores"}
	L["tail.p999_ms"] = metric{Value: tailP999(win.samples, cfg.window), Unit: "ms", N: len(win.samples)}
	var hits, lookups, evictions int64
	for i := range win.after {
		a, b := win.after[i].Cache, win.before[i].Cache
		hits += a.Hits - b.Hits
		lookups += (a.Hits - b.Hits) + (a.Misses - b.Misses) + (a.Coalesced - b.Coalesced)
		evictions += a.Evictions - b.Evictions
	}
	L["qcache.hit_ratio"] = metric{Value: float64(hits) / float64(max(1, lookups)), Unit: "ratio", N: int(lookups)}
	L["qcache.evictions"] = metric{Value: float64(evictions), Unit: "count"}

	// With writes beside the reads, the replay ingests a feed batch as
	// often per request as the window did.
	ingestEvery := 0
	if len(win.feed) > 0 {
		ingestEvery = max(1, win.okReqs/len(win.feed))
	}
	// A stream of repeated requests is first played once through, as the
	// process-level warm-up does, so the timed prefix meets a full cache.
	st := win.stream()
	var ops []*op
	if hot, ok := st.(*hotStream); ok {
		ops = append(ops, hot.ops...)
	}
	warm := len(ops)
	ops = append(ops, statelessPrefix(st, tracePrefix)...)
	if err := queryPasses(tr, fx, win, ops, warm, ingestEvery, res); err != nil {
		return err
	}
	if err := writePasses(tr, fx, res, runDir); err != nil {
		return err
	}
	if err := storagePasses(tr, fx, res, runDir); err != nil {
		return err
	}
	L["net.overhead_us"] = metric{Value: res.EndToEnd["p50_ms"].Value*1000 - L["server.serve_us"].Value, Unit: "us"}
	L["qcache.do_hit_ns"] = cacheHitCost()

	res.Phases["traced"] = time.Since(t).Seconds()
	return tr.write(filepath.Join(cfg.outDir, "trace-"+spec.name+".jsonl"))
}

// since is a counter's growth from before to after, or after itself
// when the counter was reset in between.
func since(after, before int64) int64 {
	if after < before {
		return after
	}
	return after - before
}

// statelessPrefix draws ops until it has n stateless ones; session
// navigation is skipped because its calls depend on server-issued ids.
func statelessPrefix(s stream, n int) []*op {
	out := make([]*op, 0, n)
	for len(out) < n {
		if o := s.next(); o.stateless() {
			out = append(out, o)
		}
	}
	return out
}

// replay calls f for each op in order on a fresh open of the reference
// snapshot, ingesting the next feed batch every ingestEvery ops when
// the workload has writes beside its reads (and letting the merge it
// may start finish, so every pass meets the same engine state). It
// returns the time the loop took apart from that ingesting.
func replay(fx *fixture, win *windowObs, ops []*op, ingestEvery int, f func(x *ncexplorer.Explorer) func(i int, st *step) error) (time.Duration, error) {
	x, err := ncexplorer.Open(fx.refDir, ncexplorer.OpenOptions{})
	if err != nil {
		return 0, err
	}
	each := f(x)
	fed := 0
	start := time.Now()
	var feeding time.Duration
	for i, o := range ops {
		if ingestEvery > 0 && i > 0 && i%ingestEvery == 0 && fed < len(win.feed) {
			t := time.Now()
			if _, err := x.Ingest(context.Background(), win.feed[fed]); err != nil {
				return 0, err
			}
			x.Quiesce()
			feeding += time.Since(t)
			fed++
		}
		if err := each(i, &o.steps[0]); err != nil {
			return 0, err
		}
	}
	return time.Since(start) - feeding, nil
}

// sourceNamed finds a corpus source by its wire name.
func sourceNamed(name string) (corpus.Source, bool) {
	for _, s := range corpus.Sources {
		if s.String() == strings.ToLower(name) {
			return s, true
		}
	}
	return 0, false
}

// coreOptions translates a facade roll-up request into engine terms,
// the way the facade itself does.
func coreOptions(r *ncexplorer.RollUpRequest) (core.RollUpOptions, error) {
	opts := core.RollUpOptions{K: r.K, Offset: r.Offset, MinScore: r.MinScore}
	for _, name := range r.Sources {
		if src, ok := sourceNamed(name); ok {
			opts.Sources = append(opts.Sources, src)
		}
	}
	tr, err := ncexplorer.ResolveTimeRange(r.Time)
	if err != nil {
		return opts, err
	}
	opts.Time = tr
	switch r.GroupBy {
	case "day":
		opts.GroupBy = core.GroupDay
	case "week":
		opts.GroupBy = core.GroupWeek
	case "month":
		opts.GroupBy = core.GroupMonth
	}
	return opts, nil
}

// queryPasses replays the read path three times — handler, facade,
// engine — and derives the query-side layer metrics.
func queryPasses(tr *tracer, fx *fixture, win *windowObs, ops []*op, warm, ingestEvery int, res *workloadResult) error {
	ctx := context.Background()
	miss := make([]bool, len(ops))
	bodies := make([][]byte, len(ops))
	timed := func(req int) bool { return req >= warm }

	serverPass := func(t *tracer) (time.Duration, error) {
		return replay(fx, win, ops, ingestEvery, func(x *ncexplorer.Explorer) func(int, *step) error {
			h := server.New(x, server.Options{}).Handler()
			return func(i int, st *step) error {
				req := httptest.NewRequest(st.method, st.path, bytes.NewReader(st.body))
				rec := httptest.NewRecorder()
				t.span("server.serve", i, "", func() { h.ServeHTTP(rec, req) })
				if rec.Code != 200 {
					return fmt.Errorf("in-process %s %s: status %d: %.200s", st.path, st.body, rec.Code, rec.Body.Bytes())
				}
				miss[i] = rec.Header().Get("X-Cache") == "MISS"
				bodies[i] = rec.Body.Bytes()
				return nil
			}
		})
	}
	// The first pass only warms the page cache and the heap.
	if _, err := serverPass(nil); err != nil {
		return err
	}
	traced, err := serverPass(tr)
	if err != nil {
		return err
	}
	spansInPass := len(tr.spans)

	var respBytes []float64
	_, err = replay(fx, win, ops, ingestEvery, func(x *ncexplorer.Explorer) func(int, *step) error {
		return func(i int, st *step) error {
			if !miss[i] {
				return nil
			}
			var v any
			var err error
			if st.roll != nil {
				tr.span("facade.rollup", i, "server.serve", func() { v, err = x.RollUpQuery(ctx, *st.roll) })
			} else {
				tr.span("facade.drilldown", i, "server.serve", func() { v, err = x.DrillDownQuery(ctx, *st.drill) })
			}
			if err != nil {
				return err
			}
			var body []byte
			tr.span("encode.marshal", i, "server.serve", func() { body, err = json.Marshal(v) })
			if err != nil {
				return err
			}
			respBytes = append(respBytes, float64(len(body)))
			res.check(bytes.Equal(body, bytes.TrimSuffix(bodies[i], []byte("\n"))),
				"traced handler and facade disagree on %s", st.body)
			return nil
		}
	})
	if err != nil {
		return err
	}

	var allocs []float64
	var memoHits, memoLookups int64
	_, err = replay(fx, win, ops, ingestEvery, func(x *ncexplorer.Explorer) func(int, *step) error {
		e := x.Engine()
		before := e.CacheStats()
		var ms runtime.MemStats
		return func(i int, st *step) error {
			if !miss[i] {
				return nil
			}
			var q core.Query
			var err error
			parent := "facade.drilldown"
			concepts := []string(nil)
			if st.roll != nil {
				parent, concepts = "facade.rollup", st.roll.Concepts
			} else {
				concepts = st.drill.Concepts
			}
			tr.span("facade.resolve", i, parent, func() {
				q, err = x.ResolveConcepts(ncexplorer.CanonicalConcepts(concepts))
			})
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			if st.roll != nil {
				var opts core.RollUpOptions
				if opts, err = coreOptions(st.roll); err != nil {
					return err
				}
				tr.span("core.rollup", i, parent, func() { _, err = e.RollUpPage(ctx, q, opts) })
			} else {
				var window *core.TimeRange
				if window, err = ncexplorer.ResolveTimeRange(st.drill.Time); err != nil {
					return err
				}
				opts := core.DrillDownOptions{K: st.drill.K, Offset: st.drill.Offset, MinScore: st.drill.MinScore, Time: window}
				tr.span("core.drilldown", i, parent, func() { _, err = e.DrillDownPage(ctx, q, opts) })
			}
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms)
			allocs = append(allocs, float64(ms.Mallocs-mallocs))
			// The cdr memo restarts with each generation, so a counter
			// that went down is counted from zero.
			after := e.CacheStats()
			for _, c := range [][2]int64{
				{after.CDR.Hits, before.CDR.Hits}, {after.Conn.Hits, before.Conn.Hits},
			} {
				memoHits += since(c[0], c[1])
				memoLookups += since(c[0], c[1])
			}
			memoLookups += since(after.CDR.Misses, before.CDR.Misses) + since(after.Conn.Misses, before.Conn.Misses)
			before = after
			return nil
		}
	})
	if err != nil {
		return err
	}

	L := res.Layers
	serve := tr.byReq("server.serve")
	fRoll, fDrill := tr.byReq("facade.rollup"), tr.byReq("facade.drilldown")
	marshal, resolve := tr.byReq("encode.marshal"), tr.byReq("facade.resolve")
	cRoll, cDrill := tr.byReq("core.rollup"), tr.byReq("core.drilldown")
	serverSelf := selfTimes(serve, fRoll, fDrill, marshal)
	facade := make(map[int]time.Duration)
	for r, d := range fRoll {
		facade[r] = d
	}
	for r, d := range fDrill {
		facade[r] = d
	}
	facadeSelf := selfTimes(facade, resolve, cRoll, cDrill)

	L["server.serve_us"] = medianOf(serve, time.Microsecond, "us", timed)
	L["server.self_us"] = medianOf(serverSelf, time.Microsecond, "us", timed)
	L["facade.rollup_us"] = medianOf(fRoll, time.Microsecond, "us", nil)
	L["facade.drilldown_us"] = medianOf(fDrill, time.Microsecond, "us", nil)
	L["facade.resolve_us"] = medianOf(resolve, time.Microsecond, "us", nil)
	L["facade.self_us"] = medianOf(facadeSelf, time.Microsecond, "us", nil)
	L["core.rollup_us"] = medianOf(cRoll, time.Microsecond, "us", nil)
	L["core.drilldown_us"] = medianOf(cDrill, time.Microsecond, "us", nil)
	L["encode.marshal_us"] = medianOf(marshal, time.Microsecond, "us", nil)
	L["encode.resp_bytes"] = metric{Value: median(respBytes), Unit: "B", N: len(respBytes)}
	L["core.allocs_per_query"] = metric{Value: median(allocs), Unit: "count", N: len(allocs)}
	L["core.memo_hit_ratio"] = metric{Value: float64(memoHits) / float64(max(1, memoLookups)), Unit: "ratio", N: int(memoLookups)}

	// The share of handler time spent below the server layer, over the
	// steady-state requests: what an engine-side gain can reach.
	var total, below time.Duration
	for r, d := range serve {
		if timed(r) {
			total += d
			below += marshal[r] + cRoll[r] + cDrill[r] + facadeSelf[r]
		}
	}
	L["server.engine_share"] = metric{Value: float64(below) / float64(max(1, total)), Unit: "ratio", N: tracePrefix}
	// Tracing overhead: what recording the handler pass's spans cost, as
	// a share of that pass. (Timing the pass again untraced cannot
	// resolve it: two passes differ by more than the spans cost.)
	L["trace.overhead_ratio"] = metric{Value: float64(spansInPass) * spanCost().Seconds() / traced.Seconds(), Unit: "ratio", N: spansInPass}
	return nil
}

// writePasses replays the first backfill batches through each layer of
// the ingest path, every pass on a freshly built default world.
func writePasses(tr *tracer, fx *fixture, res *workloadResult, runDir string) error {
	ctx := context.Background()
	batches := fx.backfill[:min(traceBatches, len(fx.backfill))]
	docs := len(batches[0])
	fresh := func() (*ncexplorer.Explorer, error) {
		return ncexplorer.New(ncexplorer.Config{Scale: "default", Seed: worldSeed, MaxSegments: 4})
	}
	facadePass := func(name, ckptDir string, lists int) (*ncexplorer.Explorer, error) {
		x, err := fresh()
		if err != nil {
			return nil, err
		}
		if ckptDir != "" {
			x.CheckpointTo(ckptDir)
		}
		for i := 0; i < lists; i++ {
			if _, err := x.RegisterWatchlist(ncexplorer.WatchlistSpec{
				Concepts: []string{fx.pops.broad[i*len(fx.pops.broad)/lists]}}); err != nil {
				return nil, err
			}
		}
		for b, arts := range batches {
			var err error
			runtime.GC() // every pass starts each batch from a collected heap
			tr.span(name, b, "server.ingest", func() {
				var r ncexplorer.IngestResult
				if r, err = x.Ingest(ctx, arts); err == nil {
					tr.span(name+".wait_durable", b, name, func() { x.WaitDurable(r.PersistSeq) })
				}
			})
			if err != nil {
				return nil, err
			}
			// A merge left running would overlap the next batch in one
			// pass and not in another; the passes are compared batch by
			// batch, so each starts from a settled engine.
			x.Quiesce()
		}
		return x, nil
	}

	x, err := fresh()
	if err != nil {
		return err
	}
	x.CheckpointTo(filepath.Join(runDir, "trace-ckpt-server"))
	h := server.New(x, server.Options{EnableIngest: true}).Handler()
	for b, arts := range batches {
		body, _ := json.Marshal(map[string]any{"articles": arts})
		req := httptest.NewRequest("POST", "/v2/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		runtime.GC()
		tr.span("server.ingest", b, "", func() { h.ServeHTTP(rec, req) })
		if rec.Code != 200 {
			return fmt.Errorf("in-process ingest: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		x.Quiesce()
	}

	withCkpt, err := facadePass("facade.ingest", filepath.Join(runDir, "trace-ckpt-facade"), 0)
	if err != nil {
		return err
	}
	written := withCkpt.Stats().Persist.BytesWritten
	plain, err := facadePass("facade.ingest_plain", "", 0)
	if err != nil {
		return err
	}
	merges := plain.Stats().Ingest.Merges
	if _, err := facadePass("facade.ingest_watched", "", traceWatchlists); err != nil {
		return err
	}

	if x, err = fresh(); err != nil {
		return err
	}
	linker := nlp.NewLinker(x.Graph())
	for b, arts := range batches {
		cdocs := make([]corpus.Document, len(arts))
		for i, a := range arts {
			pub, err := time.Parse(time.RFC3339, a.PublishedAt)
			if err != nil {
				return err
			}
			cdocs[i].Source, _ = sourceNamed(a.Source)
			cdocs[i].Title, cdocs[i].Body, cdocs[i].PublishedAt = a.Title, a.Body, pub.Unix()
		}
		var err error
		runtime.GC()
		tr.span("core.ingest", b, "facade.ingest_plain", func() { _, err = x.Engine().Ingest(ctx, cdocs) })
		if err != nil {
			return err
		}
		x.Quiesce()
		tr.span("nlp.annotate", b, "core.ingest", func() {
			for i := range cdocs {
				linker.Annotate(cdocs[i].Text())
			}
		})
	}

	perDoc := func(ds map[int]time.Duration) map[int]time.Duration {
		out := make(map[int]time.Duration, len(ds))
		for b, d := range ds {
			out[b] = d / time.Duration(docs)
		}
		return out
	}
	L := res.Layers
	srv, fac := tr.byReq("server.ingest"), tr.byReq("facade.ingest")
	plainT, watched := tr.byReq("facade.ingest_plain"), tr.byReq("facade.ingest_watched")
	L["server.ingest_self_ms"] = medianOf(selfTimes(srv, fac), time.Millisecond, "ms", nil)
	L["facade.ingest_ms"] = medianOf(fac, time.Millisecond, "ms", nil)
	// Checkpoints overlap the next batch's analysis; what an
	// acknowledgement pays for durability is the wait after commit.
	L["persist.ckpt_ms_per_batch"] = medianOf(tr.byReq("facade.ingest.wait_durable"), time.Millisecond, "ms", nil)
	L["watch.eval_us_per_batch"] = medianOf(selfTimes(watched, plainT), time.Microsecond, "us", nil)
	L["core.ingest_us_per_doc"] = medianOf(perDoc(tr.byReq("core.ingest")), time.Microsecond, "us", nil)
	L["nlp.annotate_us_per_doc"] = medianOf(perDoc(tr.byReq("nlp.annotate")), time.Microsecond, "us", nil)
	L["persist.bytes_written_per_doc"] = metric{Value: float64(written) / float64(len(batches)*docs), Unit: "B/doc", N: len(batches)}
	L["core.merges"] = metric{Value: float64(merges), Unit: "count"}
	return nil
}

// storagePasses times save, open, the segment codec and segment
// shipping over the reference snapshot.
func storagePasses(tr *tracer, fx *fixture, res *workloadResult, runDir string) error {
	L := res.Layers
	var x *ncexplorer.Explorer
	var err error
	for i := 0; i < traceOpens; i++ {
		tr.span("persist.open", i, "", func() { x, err = ncexplorer.Open(fx.refDir, ncexplorer.OpenOptions{}) })
		if err != nil {
			return err
		}
	}
	tr.span("persist.save", 0, "", func() { err = x.Save(filepath.Join(runDir, "trace-save")) })
	if err != nil {
		return err
	}
	m, err := segio.ReadManifest(fx.refDir)
	if err != nil {
		return err
	}
	var encNs, decNs, bytesTotal int64
	for i, ref := range m.Segments {
		tr.span("segio.read_segment", i, "persist.open", func() { _, _, err = segio.ReadSegmentFile(fx.refDir, ref) })
		if err != nil {
			return err
		}
		data, err := os.ReadFile(filepath.Join(fx.refDir, ref.File))
		if err != nil {
			return err
		}
		t := time.Now()
		seg, err := segio.DecodeSegment(data)
		if err != nil {
			return err
		}
		decNs += int64(time.Since(t))
		t = time.Now()
		segio.EncodeSegment(seg)
		encNs += int64(time.Since(t))
		bytesTotal += int64(len(data))
	}
	opens := tr.byReq("persist.open")
	var reads time.Duration
	for _, d := range tr.byReq("segio.read_segment") {
		reads += d
	}
	openMs := medianOf(opens, time.Millisecond, "ms", nil)
	mb := float64(bytesTotal) / (1 << 20)
	L["persist.open_ms"] = openMs
	L["persist.save_ms"] = metric{Value: float64(tr.byReq("persist.save")[0]) / float64(time.Millisecond), Unit: "ms", N: 1}
	L["core.open_self_ms"] = metric{Value: openMs.Value - float64(reads)/float64(time.Millisecond), Unit: "ms", N: 1}
	L["segio.encode_mb_per_s"] = metric{Value: mb / (float64(encNs) / 1e9), Unit: "MB/s", N: len(m.Segments)}
	L["segio.decode_mb_per_s"] = metric{Value: mb / (float64(decNs) / 1e9), Unit: "MB/s", N: len(m.Segments)}

	ts := httptest.NewServer(server.New(x, server.Options{ClusterDataDir: fx.refDir}).Handler())
	defer ts.Close()
	f := &cluster.Fetcher{BaseURL: ts.URL, Dir: filepath.Join(runDir, "trace-ship")}
	tr.span("ship.sync", 0, "", func() { _, _, err = f.Sync(context.Background()) })
	if err != nil {
		return err
	}
	shipped := float64(f.Counters().BytesShipped) / (1 << 20)
	L["ship.mb_per_s"] = metric{Value: shipped / tr.byReq("ship.sync")[0].Seconds(), Unit: "MB/s", N: 1}
	return nil
}

// spanCost is what recording one span costs: two clock readings and an
// append.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.span("x", i, "", func() {})
	}
	return time.Since(start) / n
}

// cacheHitCost times qcache.Cache.Do on a key that is already present.
func cacheHitCost() metric {
	c := qcache.New(8, 256)
	fill := func() (any, error) { return []byte("x"), nil }
	c.Do("k", fill)
	const n = 200000
	t := time.Now()
	for i := 0; i < n; i++ {
		c.Do("k", fill)
	}
	return metric{Value: float64(time.Since(t).Nanoseconds()) / n, Unit: "ns", N: n}
}
