// Command ncload is the repository's benchmark: it drives real ncserver
// and ncrouter processes over loopback sockets with four named
// workloads, checks their answers against an in-process reference,
// and reports end-to-end metrics; a traced run replays the same
// requests in-process, layer by layer, for the per-layer metrics.
// README.md in the parent directory is the manual.
//
// Usage (from the repository root, via the wrapper that builds first):
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//	bash bench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// endToEnd lists the metrics every workload reports with --trace 0,
// with the relative worsening that counts as a regression. It mirrors
// BENCHMARK.json; a self-test keeps the two in step.
var endToEnd = []struct {
	name   string
	unit   string
	better string
	bound  float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"ingest_docs_per_s", "1/s", "higher", 0.25},
	{"reopen_s", "s", "lower", 0.25},
	{"disk_bytes_per_doc", "B/doc", "lower", 0.05},
}

// perLayer lists the layer metrics every workload reports with
// --trace 1. Workload-specific layer metrics (router.*, watch.*,
// ingest.ack_*) appear in the -out file and the table only.
var perLayer = []string{
	"server.serve_us", "server.self_us", "server.engine_share", "server.cpu_us_per_req", "net.overhead_us",
	"qcache.hit_ratio", "qcache.evictions", "qcache.do_hit_ns",
	"facade.rollup_us", "facade.drilldown_us", "facade.resolve_us", "facade.self_us",
	"core.rollup_us", "core.drilldown_us", "core.memo_hit_ratio", "core.allocs_per_query",
	"encode.marshal_us", "encode.resp_bytes",
	"nlp.annotate_us_per_doc", "core.ingest_us_per_doc", "facade.ingest_ms", "server.ingest_self_ms",
	"persist.ckpt_ms_per_batch", "persist.bytes_written_per_doc", "persist.save_ms", "persist.open_ms",
	"core.open_self_ms", "segio.encode_mb_per_s", "segio.decode_mb_per_s", "core.merges",
	"watch.eval_us_per_batch", "ship.mb_per_s",
	"gen.cpu_share", "tail.p999_ms", "trace.overhead_ratio",
}

// runFile is the -out document: everything one invocation measured.
type runFile struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workloads   []*workloadResult `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims nothing.
	Claim *string `json:"claim"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain())
}

func runMain() int {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Uint64("seed", 1, "seed for articles and request streams")
	seconds := flag.Int("seconds", 10, "length of each timed window in seconds")
	trace := flag.Int("trace", 1, "1: also run the traced in-process passes and report per-layer metrics; 0: end-to-end only")
	quick := flag.Bool("quick", false, "3-second windows for a smoke run; marked non-comparable")
	binDir := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the ncserver and ncrouter binaries")
	outDir := flag.String("outdir", filepath.Join("bench", "out"), "directory for logs, traces, data directories and the -out file")
	out := flag.String("out", "", "result file (default <outdir>/run.json)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ncload: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *quick {
		*seconds = 3
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "ncload: -seconds must be at least 1")
		return 2
	}
	specs := workloads
	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "ncload: unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{*spec}
	}
	for _, name := range []string{"ncserver", "ncrouter"} {
		if _, err := os.Stat(filepath.Join(*binDir, name)); err != nil {
			fmt.Fprintf(os.Stderr, "ncload: %v (build with bench/run.sh)\n", err)
			return 2
		}
	}
	absOut, err := filepath.Abs(*outDir)
	if err == nil {
		err = os.MkdirAll(absOut, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncload:", err)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(absOut, "run.json")
	}

	// An interrupted run must not leave servers behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(1)
	}()

	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		binDir: *binDir,
		outDir: absOut,
		layers: *trace != 0,
	}
	file := runFile{Fingerprint: takeFingerprint(*seed, *seconds, *quick)}
	for i := range specs {
		res, err := runWorkload(cfg, &specs[i])
		killAllChildren()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncload: %s: %v\n", specs[i].name, err)
			return 1
		}
		printResult(res)
		file.Workloads = append(file.Workloads, res)
	}
	data, _ := json.MarshalIndent(file, "", "  ")
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ncload:", err)
		return 1
	}

	// The last line of standard output is the machine-readable verdict:
	// for one workload its metrics (end-to-end, or per-layer when
	// traced), for a full run the totals.
	attempted, failed := 0, 0
	for _, r := range file.Workloads {
		attempted += r.Attempted
		failed += r.Failed
	}
	last := map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed}
	if len(file.Workloads) == 1 {
		r := file.Workloads[0]
		metrics := make(map[string]map[string]any)
		if cfg.layers {
			for _, name := range perLayer {
				metrics[name] = map[string]any{"value": r.Layers[name].Value, "unit": r.Layers[name].Unit}
			}
		} else {
			for _, m := range endToEnd {
				metrics[m.name] = map[string]any{"value": r.EndToEnd[m.name].Value, "unit": m.unit}
			}
		}
		last["metrics"] = metrics
	} else {
		last["out"] = *out
		last["claim"] = nil
	}
	line, _ := json.Marshal(last)
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// printResult writes one workload's numbers, by name, to standard
// error: unit, sample count and within-run spread beside each value.
func printResult(r *workloadResult) {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s — %s\n", r.Workload, r.Why)
	fmt.Fprintf(w, "   attempted %d, failed %d (fail_ratio %.6f)\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(1, r.Attempted)))
	if r.Invalid != "" {
		fmt.Fprintf(w, "   INVALID: %s\n", r.Invalid)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL: %s\n", f)
	}
	row := func(name string, m metric) {
		spread := ""
		if m.Min != 0 || m.Max != 0 {
			spread = fmt.Sprintf("[%.4g .. %.4g]", m.Min, m.Max)
		}
		fmt.Fprintf(w, "   %-32s %14.4f %-6s n=%-8d %s\n", name, m.Value, m.Unit, m.N, spread)
	}
	for _, m := range endToEnd {
		row(m.name, r.EndToEnd[m.name])
	}
	for _, name := range sortedKeys(r.Layers) {
		row(name, r.Layers[name])
	}
	fmt.Fprintf(w, "   phases (s):")
	for _, name := range []string{"cold_boot", "backfill", "save", "reference", "reopen_median", "warm_up", "window", "oracle", "crash", "final_stop", "traced"} {
		if v, ok := r.Phases[name]; ok {
			fmt.Fprintf(w, " %s=%.2f", name, v)
		}
	}
	fmt.Fprintln(w)
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
