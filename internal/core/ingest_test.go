package core

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"ncexplorer/internal/corpus"
)

// ingestBatch generates a deterministic batch of fresh articles over
// the shared test world.
func ingestBatch(t testing.TB, seed uint64, n int) []corpus.Document {
	t.Helper()
	g, meta, _, _ := world(t)
	batch, err := corpus.GenerateBatch(g, meta, corpus.Tiny(), seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

// queryFingerprint runs a representative mixed workload and marshals
// every result, so two engines can be compared for byte-identical
// behaviour.
func queryFingerprint(t testing.TB, e *Engine) []byte {
	t.Helper()
	_, meta, _, _ := world(t)
	var out []any
	for _, topic := range meta.Topics {
		q := Query{topic.Concept, topic.GroupConcept}
		out = append(out, e.RollUp(q, 8), e.DrillDown(q, 8), e.RollUp(Query{topic.Concept}, 5))
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIngestMatchesMonolithic is the acceptance contract of the
// segmented index: an engine that indexed the seed corpus and then
// ingested two batches must answer every query byte-identically to an
// engine that indexed all documents in one IndexCorpus call — same
// per-document concept postings, same matches, same scores, same
// pivots.
func TestIngestMatchesMonolithic(t *testing.T) {
	g, _, c, _ := world(t)
	b1 := ingestBatch(t, 1001, 23)
	b2 := ingestBatch(t, 1002, 9)

	grown := NewEngine(g, Options{Seed: 11, Samples: 20})
	grown.IndexCorpus(c)
	if _, err := grown.Ingest(context.Background(), b1); err != nil {
		t.Fatal(err)
	}
	if _, err := grown.Ingest(context.Background(), b2); err != nil {
		t.Fatal(err)
	}
	if got := grown.Generation(); got != 3 {
		t.Fatalf("generation = %d, want 3", got)
	}

	all := &corpus.Corpus{Docs: append(append(append([]corpus.Document(nil), c.Docs...), b1...), b2...)}
	for i := range all.Docs {
		all.Docs[i].ID = corpus.DocID(i)
	}
	mono := NewEngine(g, Options{Seed: 11, Samples: 20})
	mono.IndexCorpus(all)

	if grown.NumDocs() != mono.NumDocs() {
		t.Fatalf("doc counts differ: %d vs %d", grown.NumDocs(), mono.NumDocs())
	}
	for d := 0; d < mono.NumDocs(); d++ {
		if !reflect.DeepEqual(grown.DocConcepts(corpus.DocID(d)), mono.DocConcepts(corpus.DocID(d))) {
			t.Fatalf("doc %d concept postings diverge:\n grown: %+v\n mono:  %+v",
				d, grown.DocConcepts(corpus.DocID(d)), mono.DocConcepts(corpus.DocID(d)))
		}
	}
	got, want := queryFingerprint(t, grown), queryFingerprint(t, mono)
	if string(got) != string(want) {
		t.Fatal("grown engine's query results diverge from monolithic build")
	}
}

// TestIngestMergeInvariance: background merges reorganise segments
// without changing any answer or the generation.
func TestIngestMergeInvariance(t *testing.T) {
	g, _, c, _ := world(t)
	loose := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 100})
	tight := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 2})
	loose.IndexCorpus(c)
	tight.IndexCorpus(c)
	for i := 0; i < 4; i++ {
		batch := ingestBatch(t, 2000+uint64(i), 7)
		if _, err := loose.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if _, err := tight.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	tight.WaitMerges()
	if n := len(tight.SegmentSizes()); n > 2 {
		t.Fatalf("tight engine still has %d segments after merges", n)
	}
	if n := len(loose.SegmentSizes()); n != 5 {
		t.Fatalf("loose engine has %d segments, want 5", n)
	}
	if tight.Generation() != loose.Generation() {
		t.Fatalf("merge changed the generation: %d vs %d", tight.Generation(), loose.Generation())
	}
	if tight.IngestCounters().Merges == 0 {
		t.Fatal("tight engine performed no merges")
	}
	got, want := queryFingerprint(t, tight), queryFingerprint(t, loose)
	if string(got) != string(want) {
		t.Fatal("merged engine's query results diverge from unmerged engine")
	}
	// Display data must survive merging too.
	for d := 0; d < tight.NumDocs(); d++ {
		if !reflect.DeepEqual(tight.Doc(corpus.DocID(d)), loose.Doc(corpus.DocID(d))) {
			t.Fatalf("article %d differs after merge", d)
		}
	}
}

// TestIngestEdgeCases pins the error contract: ingest before indexing
// fails, empty batches are no-ops at the current generation, and a
// cancelled context aborts before anything becomes visible.
func TestIngestEdgeCases(t *testing.T) {
	g, _, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 3, Samples: 5, Workers: 2})
	if _, err := e.Ingest(context.Background(), ingestBatch(t, 1, 2)); err == nil {
		t.Fatal("Ingest before IndexCorpus should fail")
	}
	e.IndexCorpus(c)

	res, err := e.Ingest(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs != 0 || res.Generation != 1 || res.TotalDocs != c.Len() {
		t.Fatalf("empty batch result = %+v", res)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Ingest(cancelled, ingestBatch(t, 2, 3)); err == nil {
		t.Fatal("cancelled ingest should fail")
	}
	if e.Generation() != 1 || e.NumDocs() != c.Len() {
		t.Fatalf("cancelled ingest leaked state: gen=%d docs=%d", e.Generation(), e.NumDocs())
	}

	res, err = e.Ingest(context.Background(), ingestBatch(t, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Docs != 4 || res.TotalDocs != c.Len()+4 ||
		e.NumDocs() != c.Len()+4 {
		t.Fatalf("ingest result = %+v (engine docs %d)", res, e.NumDocs())
	}
	ic := e.IngestCounters()
	if ic.Batches != 1 || ic.Docs != 4 || ic.Nanos <= 0 {
		t.Fatalf("ingest counters = %+v", ic)
	}
}

// TestResetQueryCachesAfterIngest: a reset must restore the *current*
// generation's baseline — post-ingest answers, not seed-corpus ones.
func TestResetQueryCachesAfterIngest(t *testing.T) {
	g, _, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 11, Samples: 20})
	e.IndexCorpus(c)
	if _, err := e.Ingest(context.Background(), ingestBatch(t, 4242, 11)); err != nil {
		t.Fatal(err)
	}
	before := queryFingerprint(t, e)
	epoch := e.CacheEpoch()
	e.ResetQueryCaches()
	if e.CacheEpoch() == epoch {
		t.Fatal("ResetQueryCaches must advance the cache epoch")
	}
	after := queryFingerprint(t, e)
	if string(before) != string(after) {
		t.Fatal("results changed across ResetQueryCaches")
	}
}

// TestPipelinedIngestEquivalence: batches ingested CONCURRENTLY — their
// lock-free analysis stages overlapping, commits racing for the base,
// durability waits and roll-up queries running alongside, checkpoints
// draining through the group-commit writer, background merges folding
// segments — must leave an engine byte-identical to a monolithic build
// over whatever document order the race produced, and the checkpoint
// directory must reopen to that same state.
func TestPipelinedIngestEquivalence(t *testing.T) {
	g, meta, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 3})
	e.IndexCorpus(c)
	e.SetCheckpointDir(dir, map[string]string{"scale": "tiny"})

	const nBatches = 8
	batches := make([][]corpus.Document, nBatches)
	for i := range batches {
		batches[i] = ingestBatch(t, 9100+uint64(i), 5+i%4)
	}

	// Racing readers: queries against whichever snapshot is current.
	// Their answers are not compared (each pins its own generation);
	// they exist to race the swap, the lazy per-doc score fill, the lazy
	// per-doc position fill (whose chunks every generation shares), and
	// the lazy ceiling materialisation under -race.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				topic := meta.Topics[(r+i)%len(meta.Topics)]
				e.RollUp(Query{topic.Concept, topic.GroupConcept}, 8)
				e.DrillDown(Query{topic.Concept}, 8)
			}
		}(r)
	}

	var writers sync.WaitGroup
	for i := range batches {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			res, err := e.Ingest(context.Background(), batches[i])
			if err != nil {
				t.Error(err)
				return
			}
			// The durability barrier races later commits — exactly the
			// serving layer's ack path.
			e.WaitPersisted(res.PersistSeq)
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	e.WaitMerges()

	// The race decided the batch order; rebuild that exact document
	// sequence with one monolithic IndexCorpus and compare everything.
	all := &corpus.Corpus{Docs: make([]corpus.Document, e.NumDocs())}
	for d := range all.Docs {
		doc := *e.Doc(corpus.DocID(d))
		doc.ID = corpus.DocID(d)
		all.Docs[d] = doc
	}
	mono := NewEngine(g, Options{Seed: 11, Samples: 20})
	mono.IndexCorpus(all)
	if e.NumDocs() != mono.NumDocs() {
		t.Fatalf("doc counts differ: %d vs %d", e.NumDocs(), mono.NumDocs())
	}
	for d := 0; d < mono.NumDocs(); d++ {
		if !reflect.DeepEqual(e.DocConcepts(corpus.DocID(d)), mono.DocConcepts(corpus.DocID(d))) {
			t.Fatalf("doc %d concept postings diverge", d)
		}
	}
	got, want := queryFingerprint(t, e), queryFingerprint(t, mono)
	if string(got) != string(want) {
		t.Fatal("pipelined engine's query results diverge from monolithic build")
	}

	// The overlapped checkpoints coalesced into some suffix of the
	// commit sequence; the directory must reopen to the final state.
	recovered := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 3})
	if err := recovered.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if recovered.Generation() != e.Generation() || recovered.NumDocs() != e.NumDocs() {
		t.Fatalf("recovered gen=%d docs=%d, want gen=%d docs=%d",
			recovered.Generation(), recovered.NumDocs(), e.Generation(), e.NumDocs())
	}
}

// TestIngestCancelMidAnalyze: cancellation landing while the lock-free
// analysis stage is running must leave no trace — no partial segment,
// no generation bump, no answer drift. The batch is all-or-nothing: a
// cancel that arrives after the commit leaves the whole batch visible.
func TestIngestCancelMidAnalyze(t *testing.T) {
	g, _, c, _ := world(t)
	e := NewEngine(g, Options{Seed: 11, Samples: 20})
	e.IndexCorpus(c)
	before := queryFingerprint(t, e)
	gen, docs, segs := e.Generation(), e.NumDocs(), len(e.SegmentSizes())
	batch := ingestBatch(t, 9500, 64)

	cancelled := 0
	for trial := 0; trial < 6; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(trial) * 2 * time.Millisecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		res, err := e.Ingest(ctx, batch)
		cancel()
		if err != nil {
			cancelled++
			if e.Generation() != gen || e.NumDocs() != docs || len(e.SegmentSizes()) != segs {
				t.Fatalf("trial %d: cancelled ingest leaked state: gen=%d docs=%d segs=%d",
					trial, e.Generation(), e.NumDocs(), len(e.SegmentSizes()))
			}
			if got := queryFingerprint(t, e); string(got) != string(before) {
				t.Fatalf("trial %d: cancelled ingest changed answers", trial)
			}
			continue
		}
		// Cancel landed after the swap: the whole batch must be visible
		// at one new generation. Re-baseline and keep probing.
		if res.Docs != len(batch) || e.NumDocs() != docs+len(batch) || res.Generation != gen+1 {
			t.Fatalf("trial %d: partial commit: res=%+v docs=%d", trial, res, e.NumDocs())
		}
		gen, docs, segs = e.Generation(), e.NumDocs(), len(e.SegmentSizes())
		before = queryFingerprint(t, e)
	}
	if cancelled == 0 {
		t.Log("no trial cancelled mid-analysis; invariant still held on every commit")
	}
}

// BenchmarkIngest measures the live-ingestion pipeline (annotation,
// linking, segment build, snapshot rescore, swap) in documents per
// second, the throughput number the serving story is sized by.
func BenchmarkIngest(b *testing.B) {
	g, meta, c, _ := world(b)
	const batchSize = 32
	batches := make([][]corpus.Document, b.N)
	for i := range batches {
		batch, err := corpus.GenerateBatch(g, meta, corpus.Tiny(), 7000+uint64(i), batchSize)
		if err != nil {
			b.Fatal(err)
		}
		batches[i] = batch
	}
	e := NewEngine(g, Options{Seed: 11, Samples: 20})
	e.IndexCorpus(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ingest(context.Background(), batches[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.WaitMerges()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batchSize)/elapsed, "docs/sec")
	}
}
