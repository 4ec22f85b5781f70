package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ncexplorer"
)

// workloadSpec is one named traffic mix and the deployment it runs on.
type workloadSpec struct {
	name string
	why  string
	// shards is 0 for one unsharded ncserver, else the number of shard
	// leaders behind an ncrouter.
	shards int
	// conns is the number of closed-loop connections; 0 marks the
	// open-loop live_feed.
	conns int
	// backfill is the set-up ingest: batches of docs articles each,
	// posted back to back over one connection.
	backfillBatches int
	backfillDocs    int
}

// The four workloads. Names and reasons are the contract in
// BENCHMARK.json; README.md carries the longer argument for each.
var workloads = []workloadSpec{
	{name: "dashboard_hot", conns: 2, backfillBatches: 36, backfillDocs: 512,
		why: "256 repeated requests, Zipf(1.1): all result-cache hits, so server, qcache and net/http do the work and the engine none"},
	{name: "explore_deep", conns: 2, backfillBatches: 36, backfillDocs: 512,
		why: "every request unique over the 200 broadest concepts: planner, diversity loop, rendering and JSON encoding dominate; the cache is pure cost"},
	{name: "live_feed", conns: 0, backfillBatches: 8, backfillDocs: 512,
		why: "open-loop ingest at 8 batches/s beside a closed-loop reader and SSE subscribers, then a kill and reopen: every batch invalidates caches and checkpoints"},
	{name: "router_scatter", shards: 2, conns: 1, backfillBatches: 16, backfillDocs: 256,
		why: "unique stateless requests through ncrouter to two shard leaders: scatter, generation barrier, merge and two HTTP hops dominate"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	// warmUp precedes every timed window and is not measured: it fills
	// the result cache on dashboard_hot and lets connections and lazily
	// built state settle everywhere.
	warmUp = 2 * time.Second
	// reopens is how many times a deployment is booted from its saved
	// directory; reopen_s and the boot share of setup_s are the median.
	reopens = 3
	// feedRate and feedDocs are live_feed's open-loop ingest schedule.
	feedRate = 8.0
	feedDocs = 32
	// watchlists is how many standing queries live_feed subscribes to.
	watchlists = 4
)

// runConfig is what one invocation fixes for every workload it runs.
type runConfig struct {
	seed   uint64
	window time.Duration
	binDir string
	outDir string
	layers bool // also run the in-process traced passes
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value, where it has any.
	N int `json:"n,omitempty"`
	// Min and Max are the within-run spread: the extremes over the
	// slices of the timed window (or over repeated set-ups).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Attempted counts every checked operation: timed requests, ingest
	// batches, oracle comparisons and invariants. Failed counts those
	// that were wrong, refused, timed out or mismatched.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Invalid, when set, says why the generator could not keep its own
	// schedule; the numbers are then not a result.
	Invalid  string             `json:"invalid,omitempty"`
	EndToEnd map[string]metric  `json:"end_to_end"`
	Layers   map[string]metric  `json:"per_layer,omitempty"`
	Phases   map[string]float64 `json:"phase_seconds"`
}

func (r *workloadResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// absorb counts a generator's in-window samples into the result and
// returns how many of them were answered acceptably.
func (r *workloadResult) absorb(l *loadResult, window time.Duration) (ok int) {
	for _, s := range l.samples {
		if s.at >= 0 && s.at < window {
			r.Attempted++
			if s.ok {
				ok++
			} else {
				r.Failed++
			}
		}
	}
	for _, f := range l.failures {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, f)
		}
	}
	return ok
}

// fixture is what set-up leaves behind for the timed window: the
// deployment (stopped), an in-process reference holding the same
// corpus, and the request populations drawn from it.
type fixture struct {
	dep      *deployment
	ref      *ncexplorer.Explorer
	refDir   string // a monolithic snapshot of ref, for fresh opens
	src      *articleSource
	pops     populations
	spanTo   time.Time // publication time of the newest backfill article
	docs     int       // corpus size after the backfill
	backfill [][]ncexplorer.IngestArticle
}

// runWorkload takes one workload through its whole life: cold boot,
// backfill, clean stop, repeated warm boots, warm-up, the timed window,
// and the final stop (for live_feed a crash first).
func runWorkload(cfg runConfig, spec *workloadSpec) (*workloadResult, error) {
	res := &workloadResult{
		Workload: spec.name, Why: spec.why,
		EndToEnd: make(map[string]metric), Layers: make(map[string]metric), Phases: make(map[string]float64),
	}
	runDir := filepath.Join(cfg.outDir, "run-"+spec.name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	logDir := filepath.Join(cfg.outDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	for _, old := range []string{"server0", "server1", "router"} {
		os.Remove(filepath.Join(logDir, spec.name+"-"+old+".log"))
	}

	fx, err := setUp(cfg, spec, res, runDir, logDir)
	if fx != nil && fx.dep != nil {
		defer fx.dep.stop(syscall.SIGKILL) // no-op when everything was stopped in order
	}
	if err != nil {
		return nil, err
	}

	var win *windowObs
	if spec.conns > 0 {
		win, err = closedWindow(cfg, spec, fx, res)
	} else {
		win, err = liveWindow(cfg, spec, fx, res)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range win.extra {
		res.Layers[name] = m
	}

	// Final clean stop: what is on disk afterwards is what a restart
	// would serve.
	t := time.Now()
	if err := fx.dep.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	res.Phases["final_stop"] = time.Since(t).Seconds()
	disk, err := fx.dep.diskBytes()
	if err != nil {
		return nil, err
	}
	res.EndToEnd["disk_bytes_per_doc"] = metric{Value: float64(disk) / float64(win.articles), Unit: "B/doc", N: win.articles}

	if cfg.layers {
		if err := tracedRun(cfg, spec, fx, win, res, runDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp boots the deployment cold, backfills it, stops it cleanly,
// builds the in-process reference, and boots it warm several times.
// It fills setup_s, ingest_docs_per_s and (for all but live_feed)
// reopen_s, and leaves the deployment running.
func setUp(cfg runConfig, spec *workloadSpec, res *workloadResult, runDir, logDir string) (*fixture, error) {
	ref, err := ncexplorer.New(ncexplorer.Config{Scale: "default", Seed: worldSeed, MaxSegments: 4})
	if err != nil {
		return nil, err
	}
	fx := &fixture{ref: ref, src: newArticleSource(ref, cfg.seed)}
	bodies := make([][]byte, spec.backfillBatches)
	for i := range bodies {
		arts, body, err := fx.src.batch(spec.backfillDocs)
		if err != nil {
			return nil, err
		}
		fx.backfill = append(fx.backfill, arts)
		bodies[i] = body
	}
	fx.spanTo = fx.src.clock
	probe, _ := json.Marshal(ncexplorer.RollUpRequest{Concepts: []string{ref.EvaluationTopics()[0][0]}, K: 1})
	fx.dep, err = newDeployment(spec.name, cfg.binDir, runDir, logDir, spec.shards, probe)
	if err != nil {
		return fx, err
	}

	cold, err := fx.dep.start()
	if err != nil {
		return fx, fmt.Errorf("cold boot: %w", err)
	}
	res.Phases["cold_boot"] = cold.Seconds()

	// Backfill: each server takes its share in one run of consecutive
	// batches, with a statistics exchange after each run, which is the
	// order the monolithic reference replays below.
	t := time.Now()
	var busy time.Duration
	docs := 0
	c := &caller{client: newConn()}
	per := len(bodies) / len(fx.dep.servers)
	for i, body := range bodies {
		target := min(i/per, len(fx.dep.servers)-1)
		c.base = fx.dep.servers[target].url
		a := ingestOne(c, body, spec.backfillDocs)
		res.check(a.ok, "backfill batch %d to server %d not acknowledged: %.200s", i, target, c.buf.Bytes())
		busy += a.lat
		docs += a.docs
		// Let the merge this batch may have started finish before the
		// next one: which segments exist when a batch lands then depends
		// on the batches alone, not on how a merge raced the next post,
		// and every run hands the timed window the same segment layout.
		if err := fx.dep.settle(target); err != nil {
			return fx, err
		}
		if (i+1)%per == 0 {
			if err := fx.dep.barrier(); err != nil {
				return fx, err
			}
		}
	}
	c.client.CloseIdleConnections()
	res.Phases["backfill"] = time.Since(t).Seconds()
	res.EndToEnd["ingest_docs_per_s"] = metric{Value: float64(docs) / busy.Seconds(), Unit: "1/s", N: len(bodies)}
	fx.docs, err = fx.dep.articles()
	if err != nil {
		return fx, err
	}
	res.check(fx.docs == ref.NumArticles()+docs, "after backfill the deployment holds %d articles, want %d", fx.docs, ref.NumArticles()+docs)

	t = time.Now()
	if err := fx.dep.stop(syscall.SIGTERM); err != nil {
		return fx, err
	}
	save := time.Since(t)
	res.Phases["save"] = save.Seconds()

	// The reference: the same corpus in this process. A single server's
	// saved directory is opened as it is; a cluster's is sharded, so the
	// reference replays the batches.
	t = time.Now()
	fx.refDir = filepath.Join(runDir, "ref")
	if spec.shards == 0 {
		if err := copyDir(fx.dep.dirs[0], fx.refDir); err != nil {
			return fx, err
		}
		if fx.ref, err = ncexplorer.Open(fx.refDir, ncexplorer.OpenOptions{}); err != nil {
			return fx, err
		}
	} else {
		for _, arts := range fx.backfill {
			if _, err := ref.Ingest(context.Background(), arts); err != nil {
				return fx, err
			}
		}
		ref.Quiesce()
		if err := ref.Save(fx.refDir); err != nil {
			return fx, err
		}
	}
	if fx.pops, err = conceptPopulations(fx.ref); err != nil {
		return fx, err
	}
	res.Phases["reference"] = time.Since(t).Seconds()

	boots := make([]time.Duration, reopens)
	for i := range boots {
		if boots[i], err = fx.dep.start(); err != nil {
			return fx, fmt.Errorf("warm boot %d: %w", i, err)
		}
		if i < reopens-1 {
			if err := fx.dep.stop(syscall.SIGKILL); err != nil {
				return fx, err
			}
		}
	}
	n, err := fx.dep.articles()
	if err != nil {
		return fx, err
	}
	res.check(n == fx.docs, "after reopening the deployment holds %d articles, want %d", n, fx.docs)
	reopen := durMetric(boots)
	res.Phases["reopen_median"] = reopen.Value
	if spec.conns > 0 {
		res.EndToEnd["reopen_s"] = reopen
	}
	res.EndToEnd["setup_s"] = metric{
		Value: cold.Seconds() + res.Phases["backfill"] + save.Seconds() + reopen.Value,
		Unit:  "s", N: reopens,
	}
	return fx, nil
}

// durMetric reports durations as their median with min and max.
func durMetric(ds []time.Duration) metric {
	secs := make([]float64, len(ds))
	for i, d := range ds {
		secs[i] = d.Seconds()
	}
	sort.Float64s(secs)
	return metric{Value: median(secs), Unit: "s", N: len(secs), Min: secs[0], Max: secs[len(secs)-1]}
}

// windowObs is what the timed window leaves for the traced run and the
// final accounting.
type windowObs struct {
	samples  []sample
	articles int // corpus size when the window closed
	okReqs   int
	cpu      float64 // deployment CPU seconds spent in the window
	selfCPU  float64 // generator CPU seconds spent in the window
	before   []statsz
	after    []statsz
	stream   func() stream // a fresh copy of the window's request stream
	feed     [][]ncexplorer.IngestArticle
	extra    map[string]metric // workload-specific layer metrics
}

// measure runs the timed window between two readings of the servers'
// counters and of the CPU time the deployment and this process used.
func (win *windowObs) measure(dep *deployment, run func()) error {
	var err error
	if win.before, err = dep.serverStats(); err != nil {
		return err
	}
	cpu0, err := dep.cpuSeconds()
	if err != nil {
		return err
	}
	self0 := selfCPUSeconds()
	run()
	win.selfCPU = selfCPUSeconds() - self0
	cpu1, err := dep.cpuSeconds()
	if err != nil {
		return err
	}
	win.cpu = cpu1 - cpu0
	win.after, err = dep.serverStats()
	return err
}

// latencyMetrics fills qps, p50_ms and p99_ms from the window's samples.
func latencyMetrics(res *workloadResult, samples []sample, window time.Duration) {
	res.EndToEnd["qps"] = sliceQPS(samples, window)
	res.EndToEnd["p50_ms"] = slicePercentile(samples, window, 50)
	res.EndToEnd["p99_ms"] = slicePercentile(samples, window, 99)
}

// closedWindow runs a closed-loop workload's warm-up and timed window
// and checks every fiftieth answer against the reference.
func closedWindow(cfg runConfig, spec *workloadSpec, fx *fixture, res *workloadResult) (*windowObs, error) {
	mk := func() stream {
		if spec.name == "dashboard_hot" {
			return newHotStream(cfg.seed, fx.pops)
		}
		return newDeepStream(cfg.seed, fx.pops, clockStart, fx.spanTo, spec.shards > 0)
	}
	s := mk()
	base := fx.dep.queryURL()
	t := time.Now()
	warm := closedLoop(base, s, spec.conns, warmUp, nil)
	res.Phases["warm_up"] = time.Since(t).Seconds()
	if len(warm.failures) > 0 {
		return nil, fmt.Errorf("warm-up: %s", warm.failures[0])
	}

	win := &windowObs{stream: mk, extra: make(map[string]metric)}
	var load *loadResult
	t = time.Now()
	err := win.measure(fx.dep, func() { load = closedLoop(base, s, spec.conns, cfg.window, nil) })
	if err != nil {
		return nil, err
	}
	res.Phases["window"] = time.Since(t).Seconds()
	win.samples = load.samples
	win.okReqs = res.absorb(load, cfg.window)
	latencyMetrics(res, load.samples, cfg.window)

	t = time.Now()
	for _, k := range load.kept {
		want, err := referenceBody(fx.ref, &k.op.steps[0])
		if err != nil {
			return nil, err
		}
		got := bytes.TrimSuffix(k.body, []byte("\n"))
		if spec.shards > 0 && k.op.steps[0].drill != nil {
			// The router's drill-down ranking departs from the monolith's
			// at this scale (see the README's findings), so only what does
			// hold is checked: the same generation, candidate count and
			// page length.
			same := true
			for _, key := range []string{`"generation":`, `"total":`, `"next_offset":`} {
				same = same && jsonUint(got, key) == jsonUint(want, key)
			}
			same = same && bytes.Count(got, []byte(`"concept":`)) == bytes.Count(want, []byte(`"concept":`))
			res.check(same, "router drill-down %s: page shape differs from the monolith: %s", k.op.steps[0].body, firstDiff(got, want))
			continue
		}
		res.check(bytes.Equal(got, want), "oracle mismatch on %s %s: %s", k.op.kind, k.op.steps[0].body, firstDiff(got, want))
	}
	res.Phases["oracle"] = time.Since(t).Seconds()

	if win.articles, err = fx.dep.articles(); err != nil {
		return nil, err
	}
	rss, err := fx.dep.rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd["rss_peak_mb"] = metric{Value: rss, Unit: "MB", N: len(fx.dep.procs())}
	return win, nil
}

// firstDiff shows where two bodies part ways.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-80)
	return fmt.Sprintf("at byte %d of %d/%d:\n got  …%s\n want …%s", i, len(got), len(want),
		got[from:min(len(got), i+80)], want[from:min(len(want), i+80)])
}

// referenceBody is the answer the facade gives to a stateless query
// step, encoded exactly as the server encodes it.
func referenceBody(ref *ncexplorer.Explorer, st *step) ([]byte, error) {
	ctx := context.Background()
	if st.roll != nil {
		r, err := ref.RollUpQuery(ctx, *st.roll)
		if err != nil {
			return nil, fmt.Errorf("reference roll-up %s: %w", st.body, err)
		}
		return json.Marshal(r)
	}
	r, err := ref.DrillDownQuery(ctx, *st.drill)
	if err != nil {
		return nil, fmt.Errorf("reference drill-down %s: %w", st.body, err)
	}
	return json.Marshal(r)
}
