package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ncexplorer"
	"ncexplorer/internal/server"
)

func TestPercentileAndMedian(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSliceSpread(t *testing.T) {
	// One-second slices; slice i answers 10(i+1) requests, all in i+1 ms.
	// A failure in the last slice is attempted but neither answered nor
	// timed; samples outside the window do not count at all.
	window := numSlices * time.Second
	var samples []sample
	answered := 0
	for i := 0; i < numSlices; i++ {
		for j := 0; j < 10*(i+1); j++ {
			samples = append(samples, sample{
				at:  time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond,
				lat: time.Duration(i+1) * time.Millisecond, ok: true})
			answered++
		}
	}
	samples = append(samples, sample{at: window - time.Millisecond, lat: time.Second, ok: false})
	samples = append(samples, sample{at: -time.Second, lat: time.Second, ok: true})
	samples = append(samples, sample{at: window, lat: time.Second, ok: true})

	mid := float64(numSlices+1) / 2 // median of 1..numSlices
	qps := sliceQPS(samples, window)
	if qps.Value != 10*mid || qps.Min != 10 || qps.Max != 10*numSlices || qps.N != answered+1 {
		t.Errorf("qps = %+v, want value %v over [10, %d] from %d samples", qps, 10*mid, 10*numSlices, answered+1)
	}
	p99 := slicePercentile(samples, window, 99)
	if p99.Value != mid || p99.Min != 1 || p99.Max != numSlices {
		t.Errorf("p99 = %+v, want %v over [1, %d]", p99, mid, numSlices)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	ms := time.Millisecond
	parent := map[int]time.Duration{0: 10 * ms, 1: 8 * ms, 2: 5 * ms}
	childA := map[int]time.Duration{0: 4 * ms, 1: 3 * ms} // request 2 never reached the child: a cache hit
	childB := map[int]time.Duration{0: 1 * ms}
	got := selfTimes(parent, childA, childB)
	want := map[int]time.Duration{0: 5 * ms, 1: 5 * ms, 2: 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := newTracer()
	tr.span("outer", 7, "", func() {
		tr.span("inner", 7, "outer", func() { time.Sleep(2 * ms) })
		time.Sleep(ms)
	})
	self := selfTimes(tr.byReq("outer"), tr.byReq("inner"))[7]
	if self < ms || self > tr.byReq("outer")[7]-2*ms {
		t.Errorf("traced self time %v outside [1ms, outer-2ms]", self)
	}
}

// tinyFixture is a tiny-scale explorer with its populations.
func tinyFixture(t *testing.T) (*ncexplorer.Explorer, populations) {
	t.Helper()
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	pops, err := conceptPopulations(x)
	if err != nil {
		t.Fatal(err)
	}
	return x, pops
}

// prefix returns the first n ops of a stream.
func prefix(s stream, n int) []*op {
	out := make([]*op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func bodiesOf(ops []*op) [][]byte {
	var out [][]byte
	for _, o := range ops {
		for _, st := range o.steps {
			out = append(out, append([]byte(st.path+" "), st.body...))
		}
	}
	return out
}

func TestStreamsFollowTheSeed(t *testing.T) {
	_, pops := tinyFixture(t)
	from, to := clockStart, clockStart.Add(30*24*time.Hour)
	makers := map[string]func(seed uint64) stream{
		"hot":  func(seed uint64) stream { return newHotStream(seed, pops) },
		"deep": func(seed uint64) stream { return newDeepStream(seed, pops, from, to, false) },
	}
	for name, mk := range makers {
		a, b, c := bodiesOf(prefix(mk(7), 500)), bodiesOf(prefix(mk(7), 500)), bodiesOf(prefix(mk(8), 500))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same request stream", name)
		}
	}
	// explore_deep's premise: no stateless request occurs twice.
	seen := make(map[string]bool)
	for _, b := range bodiesOf(statelessPrefix(newDeepStream(7, pops, from, to, false), 5000)) {
		if seen[string(b)] {
			t.Fatalf("deep stream repeated %s", b)
		}
		seen[string(b)] = true
	}
}

func TestArticleBatchesFollowTheSeed(t *testing.T) {
	x, _ := tinyFixture(t)
	_, a, _ := newArticleSource(x, 3).batch(16)
	_, b, _ := newArticleSource(x, 3).batch(16)
	_, c, _ := newArticleSource(x, 4).batch(16)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Errorf("article batches do not follow the seed: same-seed equal %v, other-seed equal %v",
			bytes.Equal(a, b), bytes.Equal(a, c))
	}
}

// TestOpenLoopChargesAStall is the coordinated-omission check: a server
// that stalls once for 200 ms delays every batch scheduled during the
// stall, and the feeder, timing from due time, must report all of them.
func TestOpenLoopChargesAStall(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := n.Add(1)
		if g == 20 {
			time.Sleep(200 * time.Millisecond)
		}
		fmt.Fprintf(w, `{"accepted":1,"generation":%d,"total_articles":%d}`, g, g)
	}))
	defer ts.Close()
	const rate, count = 200.0, 100
	bodies := make([][]byte, count)
	for i := range bodies {
		bodies[i] = []byte(`{"articles":[]}`)
	}
	acks, _ := feed(ts.URL, bodies, 1, rate)
	if len(acks) != count {
		t.Fatalf("sent %d batches, want %d: a late send must not drop later ones", len(acks), count)
	}
	slow, worst := 0, time.Duration(0)
	for i, a := range acks {
		if !a.ok {
			t.Fatalf("batch %d not acknowledged", i)
		}
		if want := time.Duration(float64(i) * float64(time.Second) / rate); a.due != want {
			t.Fatalf("batch %d due at %v, want %v: a late send must not shift later due times", i, a.due, want)
		}
		if a.lat > 50*time.Millisecond {
			slow++
		}
		worst = max(worst, a.lat)
	}
	// 200 ms at 200 batches a second holds up some 40 batches; at least
	// the 30 due in the first 150 ms waited over 50 ms.
	if slow < 30 {
		t.Errorf("only %d batches show the stall; batches queued behind it were not charged", slow)
	}
	if worst < 190*time.Millisecond {
		t.Errorf("worst latency %v, want the 200 ms stall to show", worst)
	}
}

func TestPacerKeepsItsSchedule(t *testing.T) {
	t0 := time.Now()
	worst := time.Duration(0)
	for i := 1; i <= 20; i++ {
		late, waited := paceTo(t0.Add(time.Duration(i) * 3 * time.Millisecond))
		if !waited {
			continue // the test itself was descheduled past a due time
		}
		worst = max(worst, late)
	}
	if worst > 2*time.Millisecond {
		t.Errorf("pacer let go %v late; it should spin the last millisecond", worst)
	}
	if late, waited := paceTo(t0); waited || late <= 0 {
		t.Errorf("a due time in the past: waited=%v late=%v, want no wait and positive lateness", waited, late)
	}
}

// TestRequestBuildersAgainstHandler drives each workload's request
// stream against a real handler at tiny scale and checks every kept
// answer against the facade, as the full run does.
func TestRequestBuildersAgainstHandler(t *testing.T) {
	x, pops := tinyFixture(t)
	ts := httptest.NewServer(server.New(x, server.Options{}).Handler())
	defer ts.Close()
	from, to := clockStart.Add(-45*24*time.Hour), clockStart
	streams := map[string]stream{
		"dashboard_hot":  newHotStream(1, pops),
		"explore_deep":   newDeepStream(1, pops, from, to, false),
		"router_scatter": newDeepStream(1, pops, from, to, true),
	}
	for name, s := range streams {
		load := closedLoop(ts.URL, s, 2, 300*time.Millisecond, nil)
		if len(load.failures) > 0 {
			t.Errorf("%s: %s", name, load.failures[0])
		}
		if len(load.samples) < 100 || len(load.kept) == 0 {
			t.Errorf("%s: %d samples, %d kept answers; the loop barely ran", name, len(load.samples), len(load.kept))
		}
		for _, k := range load.kept {
			want, err := referenceBody(x, &k.op.steps[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.TrimSuffix(k.body, []byte("\n")); !bytes.Equal(got, want) {
				t.Errorf("%s: %s", name, firstDiff(got, want))
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) metric { return metric{Value: v, Min: v * 0.99, Max: v * 1.01} }
	noisy := func(v float64) metric { return metric{Value: v, Min: v * 0.5, Max: v * 1.5} }
	for _, c := range []struct {
		a, b   metric
		higher bool
		want   string
	}{
		{steady(100), steady(105), false, "same"},
		{steady(100), steady(120), false, "worse"},
		{steady(100), steady(80), false, "better"},
		{steady(100), steady(120), true, "better"},
		{steady(100), steady(80), true, "worse"},
		{noisy(100), steady(120), false, "unresolved"},
		{steady(100), noisy(80), true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, higher=%v) = %s, want %s", c.a.Value, c.b.Value, c.higher, got, c.want)
		}
	}
	base := fingerprint{CPUModel: "x", NumCPU: 2, Seconds: 10}
	for _, other := range []fingerprint{
		{CPUModel: "y", NumCPU: 2, Seconds: 10},
		{CPUModel: "x", NumCPU: 4, Seconds: 10},
		{CPUModel: "x", NumCPU: 2, Seconds: 3},
		{CPUModel: "x", NumCPU: 2, Seconds: 10, Quick: true},
	} {
		if incomparable(base, other) == "" {
			t.Errorf("runs on %+v and %+v were accepted as comparable", base, other)
		}
	}
	other := base
	other.Seed, other.Commit = 9, "abc"
	if why := incomparable(base, other); why != "" {
		t.Errorf("runs differing only in seed and commit refused: %s", why)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the lists in main.go
// saying the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this checkout:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || math.Abs(m.Bound-c.bound) > 1e-9 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, c)
		}
	}
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, perLayer) {
		t.Errorf("per-layer names differ:\n BENCHMARK.json %v\n code           %v", names, perLayer)
	}
}
