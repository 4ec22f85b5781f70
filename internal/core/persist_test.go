package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/segio"
)

// enginesEquivalent asserts the save→load acceptance contract: same
// generation, same corpus, same per-document postings and articles,
// and byte-identical answers to a mixed query workload.
func enginesEquivalent(t *testing.T, saved, loaded *Engine) {
	t.Helper()
	if saved.Generation() != loaded.Generation() {
		t.Fatalf("generation: %d vs %d", saved.Generation(), loaded.Generation())
	}
	if saved.NumDocs() != loaded.NumDocs() {
		t.Fatalf("docs: %d vs %d", saved.NumDocs(), loaded.NumDocs())
	}
	for d := 0; d < saved.NumDocs(); d++ {
		id := corpus.DocID(d)
		if !reflect.DeepEqual(saved.DocConcepts(id), loaded.DocConcepts(id)) {
			t.Fatalf("doc %d concept postings diverge", d)
		}
		if !reflect.DeepEqual(saved.Doc(id), loaded.Doc(id)) {
			t.Fatalf("article %d diverges", d)
		}
	}
	got, want := queryFingerprint(t, loaded), queryFingerprint(t, saved)
	if string(got) != string(want) {
		t.Fatal("loaded engine's query results diverge from the saving engine")
	}
}

func persistTestOptions() Options {
	return Options{Seed: 11, Samples: 20}
}

// TestSaveOpenEquivalence: build → ingest → save → open must yield an
// engine indistinguishable from the saver, across generations, and the
// loaded engine must keep ingesting and merging from where the saver
// stopped.
func TestSaveOpenEquivalence(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()

	saver := NewEngine(g, persistTestOptions())
	saver.IndexCorpus(c)
	if _, err := saver.Ingest(context.Background(), ingestBatch(t, 8001, 13)); err != nil {
		t.Fatal(err)
	}
	if _, err := saver.Ingest(context.Background(), ingestBatch(t, 8002, 5)); err != nil {
		t.Fatal(err)
	}
	saver.WaitMerges()
	worldMeta := map[string]string{"scale": "tiny"}
	if err := saver.SaveSnapshot(dir, worldMeta); err != nil {
		t.Fatal(err)
	}

	loaded := NewEngine(g, persistTestOptions())
	if err := loaded.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	enginesEquivalent(t, saver, loaded)

	// The loaded engine carries the saver's build stats (for /statsz).
	if saver.Stats().Docs != loaded.Stats().Docs ||
		!reflect.DeepEqual(saver.Stats().PerSource, loaded.Stats().PerSource) {
		t.Fatalf("stats diverge: %+v vs %+v", saver.Stats(), loaded.Stats())
	}
	pc := loaded.PersistCounters()
	if pc.Opens != 1 || pc.BytesRead == 0 {
		t.Fatalf("loaded persist counters = %+v", pc)
	}

	// Post-load growth: both engines ingest the same further batches;
	// equivalence must hold at every new generation, including through
	// merges.
	for i := 0; i < 3; i++ {
		batch := ingestBatch(t, 8100+uint64(i), 7)
		if _, err := saver.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		saver.WaitMerges()
		loaded.WaitMerges()
		enginesEquivalent(t, saver, loaded)
	}

	// Save the grown loaded engine and reopen: a second generation of
	// persistence over a warm-started engine.
	if err := loaded.SaveSnapshot(dir, worldMeta); err != nil {
		t.Fatal(err)
	}
	pc = loaded.PersistCounters()
	if pc.Saves != 1 || pc.SegmentsReused == 0 {
		t.Fatalf("second-save persist counters = %+v (want reuse of loaded segment files)", pc)
	}
	reopened := NewEngine(g, persistTestOptions())
	if err := reopened.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	enginesEquivalent(t, loaded, reopened)
}

// TestSaveReusesSegmentFiles: an unchanged corpus re-saves without
// rewriting any segment file (content-addressed names), and the
// manifest swap collects files no longer referenced after a merge.
func TestSaveReusesSegmentFiles(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 2})
	e.IndexCorpus(c)
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	first := e.PersistCounters()
	if first.SegmentsWritten != 1 || first.SegmentsReused != 0 {
		t.Fatalf("first save counters = %+v", first)
	}
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	second := e.PersistCounters()
	if second.SegmentsWritten != 1 || second.SegmentsReused != 1 {
		t.Fatalf("second save counters = %+v", second)
	}

	// Grow past MaxSegments so a merge folds segments, then save: the
	// directory must hold exactly the live segment files.
	for i := 0; i < 3; i++ {
		if _, err := e.Ingest(context.Background(), ingestBatch(t, 8200+uint64(i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitMerges()
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segFiles int
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), segio.SegmentExt) {
			segFiles++
		}
	}
	if segFiles != len(m.Segments) {
		t.Fatalf("%d segment files on disk, manifest references %d", segFiles, len(m.Segments))
	}
	if len(m.Segments) != len(e.SegmentSizes()) {
		t.Fatalf("manifest has %d segments, engine %d", len(m.Segments), len(e.SegmentSizes()))
	}
}

// TestCheckpointSurvivesCrash: with a checkpoint dir configured, every
// committed ingest is reopenable without any explicit save — the
// -watch crash-recovery story.
func TestCheckpointSurvivesCrash(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 2})
	e.IndexCorpus(c)
	e.SetCheckpointDir(dir, map[string]string{"scale": "tiny"})
	for i := 0; i < 3; i++ {
		if _, err := e.Ingest(context.Background(), ingestBatch(t, 8300+uint64(i), 6)); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitMerges()
	pc := e.PersistCounters()
	if pc.Checkpoints == 0 || pc.Saves != 0 {
		t.Fatalf("persist counters = %+v (want checkpoints without saves)", pc)
	}

	// "Crash": no SaveSnapshot call; a fresh engine must reopen the
	// checkpointed state. The memo reaches disk through the segments'
	// conn companions.
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, m)
	if m.Generation != e.Generation() {
		t.Fatalf("manifest generation %d, engine %d", m.Generation, e.Generation())
	}
	recovered := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 2})
	if err := recovered.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if walks := recovered.IngestCounters().ConnWalks; walks != 0 {
		t.Fatalf("post-crash open re-walked %d pairs", walks)
	}
	enginesEquivalent(t, e, recovered)

	// A full save writes the same companions; a checkpoint after it
	// keeps referencing them.
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), ingestBatch(t, 8350, 3)); err != nil {
		t.Fatal(err)
	}
	e.WaitMerges()
	m, err = segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, m)
	if m.Generation != e.Generation() {
		t.Fatalf("post-save checkpoint generation %d, engine %d", m.Generation, e.Generation())
	}
}

// everySegmentCarriesCompanion asserts the one-file-kind layout: each
// manifest segment names its conn companion.
func everySegmentCarriesCompanion(t *testing.T, m *segio.Manifest) {
	t.Helper()
	for i, ref := range m.Segments {
		if ref.Conn == "" {
			t.Fatalf("segment %d (%s) carries no conn companion", i, ref.File)
		}
	}
}

// connDump encodes every walked connectivity factor of the engine's
// plans in key order — the companion of the whole document range, and
// the layout of the whole-memo conn file saves wrote before companions
// replaced it — so two engines' stored walks compare as strings.
func connDump(e *Engine) []byte {
	st := e.state()
	return st.companionConn(0, st.snap.DocBound())
}

// TestCrashReopenWalksNothing pins the durable walks: after a save and
// then checkpoints only (merges folding segments in between, so delta
// refs carry their parents' companions), a post-crash open takes every
// connectivity factor from the companions, walks nothing, holds
// exactly the live engine's values, and answers byte-identically — as
// does an open after the clean save that follows, whose directory holds
// one companion per segment and nothing else of the kind. A second
// phase makes a checkpoint re-encode a merged segment that spans saved
// documents: its companion covers the whole merged range.
func TestCrashReopenWalksNothing(t *testing.T) {
	g, _, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20, MaxSegments: 2}
	crashOpen := func(t *testing.T, e *Engine, dir string) {
		t.Helper()
		recovered := NewEngine(g, opts)
		if err := recovered.OpenSnapshot(dir, nil); err != nil {
			t.Fatal(err)
		}
		if walks := recovered.IngestCounters().ConnWalks; walks != 0 {
			t.Fatalf("reopen re-walked %d pairs", walks)
		}
		if !bytes.Equal(connDump(recovered), connDump(e)) {
			t.Fatal("reopened connectivity factors differ from the live engine's")
		}
		enginesEquivalent(t, e, recovered)
	}
	ingest := func(t *testing.T, e *Engine, seed uint64, n int) {
		t.Helper()
		if _, err := e.Ingest(context.Background(), ingestBatch(t, seed, n)); err != nil {
			t.Fatal(err)
		}
		e.WaitMerges()
	}

	t.Run("companions after save", func(t *testing.T) {
		dir := t.TempDir()
		e := NewEngine(g, opts)
		e.IndexCorpus(c)
		if err := e.SaveSnapshot(dir, nil); err != nil {
			t.Fatal(err)
		}
		e.SetCheckpointDir(dir, nil)
		for i := 0; i < 5; i++ {
			ingest(t, e, 8700+uint64(i), 3+i)
		}
		m, err := segio.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		everySegmentCarriesCompanion(t, m)
		crashOpen(t, e, dir)

		// A clean save leaves exactly one companion per segment and a
		// manifest that names no other conn file.
		if err := e.SaveSnapshot(dir, nil); err != nil {
			t.Fatal(err)
		}
		if m, err = segio.ReadManifest(dir); err != nil {
			t.Fatal(err)
		}
		everySegmentCarriesCompanion(t, m)
		entries, _ := os.ReadDir(dir)
		conns := 0
		for _, ent := range entries {
			if strings.HasSuffix(ent.Name(), segio.ConnExt) {
				conns++
			}
		}
		if conns != len(m.Segments) {
			t.Fatalf("%d conn files after a save, want one per segment (%d)", conns, len(m.Segments))
		}
		raw, err := os.ReadFile(filepath.Join(dir, segio.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"conn_file"`)) || bytes.Contains(raw, []byte(`"conn_entries"`)) {
			t.Fatalf("saved manifest names a whole-memo conn file:\n%s", raw)
		}
		crashOpen(t, e, dir)
	})

	t.Run("re-encoded merge spans saved documents", func(t *testing.T) {
		dir := t.TempDir()
		e := NewEngine(g, opts)
		e.IndexCorpus(c)
		ingest(t, e, 8710, 4)
		if err := e.SaveSnapshot(dir, nil); err != nil {
			t.Fatal(err)
		}
		saved := int32(e.NumDocs())
		// No checkpoint directory: this merge records no lineage, so the
		// next checkpoint must encode the merged segment in full.
		ingest(t, e, 8711, 3)
		e.SetCheckpointDir(dir, nil)
		ingest(t, e, 8712, 5)
		m, err := segio.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		everySegmentCarriesCompanion(t, m)
		spans := false
		for _, ref := range m.Segments {
			spans = spans || (ref.Base < saved && ref.Base+int32(ref.Docs) > saved)
		}
		if !spans {
			t.Fatalf("want a re-encoded segment spanning the saved documents: %+v", m)
		}
		crashOpen(t, e, dir)
	})
}

// walkedRows counts the plan rows with a positive ontology factor: the
// (concept, document) pairs whose connectivity factor is walked.
func walkedRows(e *Engine) int64 {
	var n int64
	for _, p := range e.state().plans {
		for _, o := range p.ont {
			if o > 0 {
				n++
			}
		}
	}
	return n
}

// TestEachPairWalkedOnce: over a sequential schedule — index, ingest,
// merge, save, cache reset, checkpointed ingest — the live engine walks
// every (concept, document) pair exactly once, so its walk count always
// equals its walked plan rows, and every engine opened from its store
// walks nothing: the pre-warm's values reach the plans, merges and
// resets carry the plans, and companions carry them to disk.
func TestEachPairWalkedOnce(t *testing.T) {
	g, _, c, _ := world(t)
	opts := Options{Seed: 11, Samples: 20, MaxSegments: 2}
	dir := t.TempDir()
	e := NewEngine(g, opts)
	e.IndexCorpus(c)
	e.SetCheckpointDir(dir, nil)
	walkedOnce := func(stage string) {
		t.Helper()
		if got, want := e.IngestCounters().ConnWalks, walkedRows(e); got != want {
			t.Fatalf("after %s: %d walks for %d walked plan rows", stage, got, want)
		}
	}
	reopenWalksNothing := func(stage string) {
		t.Helper()
		r := NewEngine(g, opts)
		if err := r.OpenSnapshot(dir, nil); err != nil {
			t.Fatal(err)
		}
		if walks := r.IngestCounters().ConnWalks; walks != 0 {
			t.Fatalf("open after %s walked %d pairs", stage, walks)
		}
		enginesEquivalent(t, e, r)
	}
	ingest := func(seed uint64, n int) {
		t.Helper()
		if _, err := e.Ingest(context.Background(), ingestBatch(t, seed, n)); err != nil {
			t.Fatal(err)
		}
		e.WaitMerges()
	}

	walkedOnce("index")
	for i := 0; i < 3; i++ {
		ingest(8750+uint64(i), 4+i)
	}
	if e.IngestCounters().Merges == 0 {
		t.Fatal("schedule merged no segments")
	}
	walkedOnce("ingest and merge")
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	reopenWalksNothing("save")
	e.ResetQueryCaches()
	walkedOnce("cache reset")
	ingest(8760, 5)
	walkedOnce("ingest after the reset")
	reopenWalksNothing("checkpoint")
}

// TestDeltaCheckpointAfterMerge: a background merge must not put an
// O(corpus) re-encode on the checkpoint writer. Once a merge folds two
// durable segments, the next checkpoint covers the merged segment by
// referencing its parents' existing files (a delta checkpoint) instead
// of encoding a new merged file; the delta manifest still reopens
// byte-equivalently, and the next full save compacts the directory
// back to the live layout. Synchronous persistence makes the schedule
// deterministic: every batch segment is durable before the merge that
// folds it commits.
func TestDeltaCheckpointAfterMerge(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 2})
	e.IndexCorpus(c)
	e.SetSyncPersist(true)
	e.SetCheckpointDir(dir, nil)
	for i := 0; i < 4; i++ {
		if _, err := e.Ingest(context.Background(), ingestBatch(t, 8400+uint64(i), 5)); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitMerges()
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != e.Generation() {
		t.Fatalf("manifest generation %d, engine %d", m.Generation, e.Generation())
	}
	live := len(e.SegmentSizes())
	if len(m.Segments) <= live {
		t.Fatalf("manifest references %d files for %d live segments — merges were re-encoded instead of delta-referenced", len(m.Segments), live)
	}
	if w := e.PersistCounters().SegmentsWritten; w > 5 {
		t.Fatalf("%d segment files written for 4 batches + seed — merged segments hit the writer", w)
	}

	recovered := NewEngine(g, Options{Seed: 11, Samples: 20, MaxSegments: 2})
	if err := recovered.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	enginesEquivalent(t, e, recovered)

	// A full save compacts: manifest and directory collapse to the live
	// segmentation.
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	m, err = segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != live {
		t.Fatalf("after save: manifest references %d files for %d live segments", len(m.Segments), live)
	}
}

// TestFailedSaveKeepsPreviousSnapshot: when any write fails mid-save,
// the directory still opens to the previously saved state.
func TestFailedSaveKeepsPreviousSnapshot(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	if err := e.SaveSnapshot(dir, map[string]string{"scale": "tiny"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, segio.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), ingestBatch(t, 8400, 5)); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected write failure")
	for _, stage := range []string{"segment", "manifest"} {
		stage := stage
		origFile, origManifest := writeSegioFile, writeSegioManifest
		if stage == "segment" {
			writeSegioFile = func(dir, name string, data []byte) error { return injected }
		} else {
			writeSegioManifest = func(dir string, m *segio.Manifest) error { return injected }
		}
		err := e.SaveSnapshot(dir, nil)
		writeSegioFile, writeSegioManifest = origFile, origManifest
		if !errors.Is(err, injected) {
			t.Fatalf("%s stage: save err = %v, want injected failure", stage, err)
		}
		after, rerr := os.ReadFile(filepath.Join(dir, segio.ManifestName))
		if rerr != nil || string(after) != string(before) {
			t.Fatalf("%s stage: previous manifest not intact after failed save", stage)
		}
		recovered := NewEngine(g, persistTestOptions())
		if oerr := recovered.OpenSnapshot(dir, nil); oerr != nil {
			t.Fatalf("%s stage: store no longer opens: %v", stage, oerr)
		}
		if recovered.Generation() != 1 || recovered.NumDocs() != c.Len() {
			t.Fatalf("%s stage: recovered wrong state: gen=%d docs=%d",
				stage, recovered.Generation(), recovered.NumDocs())
		}
	}
	// And with the failure gone, the same save succeeds.
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWriteFailureKeepsPreviousManifest: a group-commit
// checkpoint attempt that fails at the disk never fails the ingest that
// enqueued it — the commit already happened — it is counted in
// PersistCounters.CheckpointErrors, the previous manifest stays
// openable, and because the written watermark does not advance on
// failure, the next successful attempt repairs the directory in full.
func TestCheckpointWriteFailureKeepsPreviousManifest(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	e.SetCheckpointDir(dir, map[string]string{"scale": "tiny"})
	res, err := e.Ingest(context.Background(), ingestBatch(t, 8600, 4))
	if err != nil {
		t.Fatal(err)
	}
	e.WaitPersisted(res.PersistSeq)
	before, err := os.ReadFile(filepath.Join(dir, segio.ManifestName))
	if err != nil {
		t.Fatal(err)
	}

	// The writer is idle after WaitMerges (every enqueued job completed
	// and none are pending), so swapping the injection hook does not
	// race a write in flight; the enqueue/pickup mutex pair publishes
	// the swap to the writer goroutine. The companion stage fails the
	// conn companion written beside the batch's segment file; the
	// manifest stage fails the swap itself.
	injected := errors.New("injected checkpoint failure")
	for i, stage := range []string{"companion", "manifest"} {
		e.WaitMerges()
		origFile, origManifest := writeSegioFile, writeSegioManifest
		if stage == "companion" {
			writeSegioFile = func(dir, name string, data []byte) error {
				if strings.HasSuffix(name, segio.ConnExt) {
					return injected
				}
				return origFile(dir, name, data)
			}
		} else {
			writeSegioManifest = func(dir string, m *segio.Manifest) error { return injected }
		}
		res, err = e.Ingest(context.Background(), ingestBatch(t, 8601+uint64(i), 3))
		if err != nil {
			t.Fatalf("%s stage: checkpoint failure must not fail the ingest: %v", stage, err)
		}
		e.WaitPersisted(res.PersistSeq)
		e.WaitMerges()
		writeSegioFile, writeSegioManifest = origFile, origManifest

		if n := e.PersistCounters().CheckpointErrors; n != int64(i+1) {
			t.Fatalf("%s stage: CheckpointErrors = %d, want %d", stage, n, i+1)
		}
		after, err := os.ReadFile(filepath.Join(dir, segio.ManifestName))
		if err != nil || string(after) != string(before) {
			t.Fatalf("%s stage: failed checkpoint disturbed the previous manifest", stage)
		}
		recovered := NewEngine(g, persistTestOptions())
		if err := recovered.OpenSnapshot(dir, nil); err != nil {
			t.Fatalf("%s stage: store no longer opens after failed checkpoint: %v", stage, err)
		}
		if recovered.NumDocs() != c.Len()+4 {
			t.Fatalf("%s stage: recovered %d docs, want the pre-failure state's %d",
				stage, recovered.NumDocs(), c.Len()+4)
		}
		if walks := recovered.IngestCounters().ConnWalks; walks != 0 {
			t.Fatalf("%s stage: reopening the previous manifest re-walked %d pairs", stage, walks)
		}
	}

	// Failure cleared: the next ingest's checkpoint writes the full
	// current state (nothing was marked written by the failed attempts).
	res, err = e.Ingest(context.Background(), ingestBatch(t, 8609, 2))
	if err != nil {
		t.Fatal(err)
	}
	e.WaitPersisted(res.PersistSeq)
	e.WaitMerges()
	repaired := NewEngine(g, persistTestOptions())
	if err := repaired.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	// The companion the failed attempt never placed was rewritten.
	if walks := repaired.IngestCounters().ConnWalks; walks != 0 {
		t.Fatalf("repaired store re-walked %d pairs at open", walks)
	}
	enginesEquivalent(t, e, repaired)
}

// TestPersistErrors pins the misuse and corruption error paths of the
// engine-level API.
func TestPersistErrors(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()

	empty := NewEngine(g, persistTestOptions())
	if err := empty.SaveSnapshot(dir, nil); !errors.Is(err, errSaveBeforeIndex) {
		t.Fatalf("save before index: %v", err)
	}
	if err := empty.OpenSnapshot(t.TempDir(), nil); !errors.Is(err, segio.ErrNoSnapshot) {
		t.Fatalf("open empty dir: %v", err)
	}

	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.OpenSnapshot(dir, nil); !errors.Is(err, errOpenAfterIndex) {
		t.Fatalf("open on indexed engine: %v", err)
	}

	// Mismatched engine options must be rejected before any state is
	// installed.
	other := NewEngine(g, Options{Seed: 12, Samples: 20})
	if err := other.OpenSnapshot(dir, nil); err == nil || !strings.Contains(err.Error(), "options") {
		t.Fatalf("mismatched options: %v", err)
	}
	if other.state() != nil {
		t.Fatal("failed open installed state")
	}

	// Manifest referencing a missing segment file: typed corruption,
	// no partial engine.
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, m.Segments[0].File)); err != nil {
		t.Fatal(err)
	}
	victim := NewEngine(g, persistTestOptions())
	if err := victim.OpenSnapshot(dir, nil); !errors.Is(err, segio.ErrCorrupt) {
		t.Fatalf("missing segment file: %v", err)
	}
	if victim.state() != nil {
		t.Fatal("corrupt open installed state")
	}
}

// TestOpenRejectsOutOfGraphNodes: node IDs the codec accepts
// structurally but that do not exist in THIS graph must fail the open
// with typed corruption — never reach the rescore path, where they
// would panic graph lookups.
func TestOpenRejectsOutOfGraphNodes(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the first segment with a candidate ID beyond the graph,
	// keeping the file canonical and the manifest CRC in agreement (the
	// damage models a snapshot saved against a different world, which
	// no checksum can catch).
	ref := &m.Segments[0]
	seg, _, err := segio.ReadSegmentFile(dir, *ref)
	if err != nil {
		t.Fatal(err)
	}
	alien := kg.NodeID(g.NumNodes() + 5)
	seg.Docs[0].Candidates = append(seg.Docs[0].Candidates, alien)
	data := segio.EncodeSegment(seg)
	ref.CRC = crc32.ChecksumIEEE(data)
	if err := segio.WriteFileAtomic(dir, ref.File, data); err != nil {
		t.Fatal(err)
	}
	if err := segio.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	victim := NewEngine(g, persistTestOptions())
	if err := victim.OpenSnapshot(dir, nil); !errors.Is(err, segio.ErrCorrupt) {
		t.Fatalf("out-of-graph candidate: err = %v, want ErrCorrupt", err)
	}
	if victim.state() != nil {
		t.Fatal("corrupt open installed state")
	}
}

// TestCheckpointRejectsForeignConnFile: a checkpoint into a directory
// previously saved by an engine with different content-determining
// options references none of that store's conn companions — their walk
// values were computed under a different seed and would poison a later
// open — and reopens walking nothing, with exactly its own
// connectivity factors.
func TestCheckpointRejectsForeignConnFile(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	foreign := NewEngine(g, Options{Seed: 99, Samples: 20})
	foreign.IndexCorpus(c)
	if err := foreign.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	fm, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, fm)

	e := NewEngine(g, persistTestOptions()) // Seed 11: different content
	e.IndexCorpus(c)
	e.SetCheckpointDir(dir, nil)
	if _, err := e.Ingest(context.Background(), ingestBatch(t, 8500, 3)); err != nil {
		t.Fatal(err)
	}
	e.WaitMerges()
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, m)
	for _, ref := range m.Segments {
		for _, fref := range fm.Segments {
			if ref.Conn == fref.Conn {
				t.Fatalf("checkpoint inherited foreign conn companion %q", ref.Conn)
			}
		}
	}
	if !compatibleEngineMeta(e.engineMeta(), m.Engine) {
		t.Fatal("checkpoint manifest does not carry this engine's options")
	}
	recovered := NewEngine(g, persistTestOptions())
	if err := recovered.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if walks := recovered.IngestCounters().ConnWalks; walks != 0 {
		t.Fatalf("reopen re-walked %d pairs", walks)
	}
	if !bytes.Equal(connDump(recovered), connDump(e)) {
		t.Fatal("reopened connectivity factors differ from the checkpointing engine's")
	}
}

// expectCorruptOpen asserts that opening dir fails with ErrCorrupt and
// installs no state, and returns the failed engine.
func expectCorruptOpen(t *testing.T, g *kg.Graph, dir, what string) *Engine {
	t.Helper()
	victim := NewEngine(g, persistTestOptions())
	if err := victim.OpenSnapshot(dir, nil); !errors.Is(err, segio.ErrCorrupt) {
		t.Fatalf("open with %s: %v", what, err)
	}
	if victim.state() != nil {
		t.Fatalf("open with %s installed state", what)
	}
	return victim
}

// reopenAfterFailure asserts that an engine whose open failed stays
// reusable: it opens the undamaged store dir, walks nothing — so no
// value from the rejected file can have reached its plans, which the
// companions fill in full — and answers exactly like saver.
func reopenAfterFailure(t *testing.T, victim, saver *Engine, dir string) {
	t.Helper()
	if err := victim.OpenSnapshot(dir, nil); err != nil {
		t.Fatalf("reopen after a failed open: %v", err)
	}
	if walks := victim.IngestCounters().ConnWalks; walks != 0 {
		t.Fatalf("reopen after a failed open walked %d pairs", walks)
	}
	enginesEquivalent(t, saver, victim)
}

// readCompanion decodes a conn companion into parallel key/value slices.
func readCompanion(t *testing.T, dir, name string) ([]uint64, []float64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	var values []float64
	if err := segio.DecodeConn(data, func(k uint64, v float64) {
		keys, values = append(keys, k), append(values, v)
	}); err != nil || len(keys) == 0 {
		t.Fatalf("companion %s: %d entries, err %v", name, len(keys), err)
	}
	return keys, values
}

// rewriteCompanion replaces segment i's companion with data under its
// correct content name and points the manifest at it, so only checks
// beyond the file's own name and CRC can reject it.
func rewriteCompanion(t *testing.T, dir string, m *segio.Manifest, i int, data []byte) {
	t.Helper()
	ref := &m.Segments[i]
	ref.Conn = segio.CompanionFileName(ref.Base, ref.Docs, data)
	if err := segio.WriteFileAtomic(dir, ref.Conn, data); err != nil {
		t.Fatal(err)
	}
	if err := segio.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// copyStore clones a store directory, replacing the named file's bytes
// when data is non-nil.
func copyStore(t *testing.T, src, name string, data []byte) string {
	t.Helper()
	d := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if ent.Name() == name && data != nil {
			b = data
		}
		if err := os.WriteFile(filepath.Join(d, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestFailedOpenLeavesNoConnEntries: a conn-memo file that passes its
// CRC but fails structural validation partway through fails the open,
// as does any damaged companion beside companions that decode cleanly
// — and the failed engine then opens the undamaged store and answers
// like the saver, so nothing from a rejected file is ever served.
func TestFailedOpenLeavesNoConnEntries(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, m)
	// Unsorted keys inside the segment's range, under the correct content
	// name: the header and CRC are valid, so entries stream to the
	// callback before the violation is detected.
	bad := copyStore(t, dir, "", nil)
	rewriteCompanion(t, bad, m, 0, segio.EncodeConn([]uint64{9, 3}, []float64{1, 2}))
	reopenAfterFailure(t, expectCorruptOpen(t, g, bad, "an unsorted conn file"), e, dir)

	// A saved store plus checkpoints, so every damaged companion below
	// sits beside files that decode cleanly — and whose entries must not
	// leak either.
	cdir := t.TempDir()
	ce := NewEngine(g, persistTestOptions())
	ce.IndexCorpus(c)
	if err := ce.SaveSnapshot(cdir, nil); err != nil {
		t.Fatal(err)
	}
	ce.SetCheckpointDir(cdir, nil)
	for i := 0; i < 2; i++ {
		if _, err := ce.Ingest(context.Background(), ingestBatch(t, 8800+uint64(i), 4)); err != nil {
			t.Fatal(err)
		}
		ce.WaitMerges()
	}
	cm, err := segio.ReadManifest(cdir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, cm)
	if len(cm.Segments) < 2 {
		t.Fatalf("checkpoints left %d segments, want one per batch beside the saved one", len(cm.Segments))
	}
	first := cm.Segments[0].Conn
	data, err := os.ReadFile(filepath.Join(cdir, first))
	if err != nil {
		t.Fatal(err)
	}
	keys, values := readCompanion(t, cdir, first)
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x01
	for _, tc := range []struct {
		name, file string
		data       []byte
	}{
		{"a truncated companion", first, data[:len(data)-5]},
		{"a flipped companion", first, flipped},
		// Valid on its own, but not the content its name pins, and its
		// key lies outside the last segment's documents.
		{"a conflicting companion", cm.Segments[len(cm.Segments)-1].Conn, segio.EncodeConn(keys[:1], []float64{values[0] + 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			victim := expectCorruptOpen(t, g, copyStore(t, cdir, tc.file, tc.data), tc.name)
			reopenAfterFailure(t, victim, ce, cdir)
		})
	}
}

// TestOpenChecksCompanionContent pins the two rules that make each
// conn companion stand alone, on a checkpointed store: a companion's
// bytes must hash to the FNV-1a its name pins, and every key's document
// must lie in its own segment's range. Each damage below keeps the file
// canonical and its CRC valid, so only the rule under test catches it.
func TestOpenChecksCompanionContent(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	e.SetCheckpointDir(dir, nil)
	for i := 0; i < 2; i++ {
		if _, err := e.Ingest(context.Background(), ingestBatch(t, 8900+uint64(i), 5)); err != nil {
			t.Fatal(err)
		}
		e.WaitMerges()
	}
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, m)
	last := len(m.Segments) - 1
	if last < 1 {
		t.Fatalf("want at least two segments, manifest has %d", len(m.Segments))
	}

	t.Run("value changed under its old name", func(t *testing.T) {
		name := m.Segments[last].Conn
		keys, values := readCompanion(t, dir, name)
		values[0] += 1
		expectCorruptOpen(t, g, copyStore(t, dir, name, segio.EncodeConn(keys, values)), "a renamed companion")
	})

	t.Run("key moved into another segment's companion", func(t *testing.T) {
		d := copyStore(t, dir, "", nil)
		dm, err := segio.ReadManifest(d)
		if err != nil {
			t.Fatal(err)
		}
		lk, lv := readCompanion(t, d, dm.Segments[last].Conn)
		j := slices.IndexFunc(lv, func(v float64) bool { return v != 0 })
		if j < 0 {
			t.Fatal("last companion holds no nonzero value")
		}
		moved, val := lk[j], lv[j]
		rewriteCompanion(t, d, dm, last, segio.EncodeConn(slices.Delete(lk, j, j+1), slices.Delete(lv, j, j+1)))
		fk, fv := readCompanion(t, d, dm.Segments[0].Conn)
		at, _ := slices.BinarySearch(fk, moved)
		fk, fv = slices.Insert(fk, at, moved), slices.Insert(fv, at, val/3)
		rewriteCompanion(t, d, dm, 0, segio.EncodeConn(fk, fv))
		expectCorruptOpen(t, g, d, "a key outside its segment")
	})
}

// TestOpenLegacyConnFileStore: a store written before saves wrote
// companions — its manifest names a whole-memo conn_file and no segment
// carries a companion — still opens, walking what no companion covers,
// and answers byte-identically to the engine that saved it. The next
// save writes companions and collects the old file.
func TestOpenLegacyConnFileStore(t *testing.T) {
	g, _, c, _ := world(t)
	dir := t.TempDir()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	if _, err := e.Ingest(context.Background(), ingestBatch(t, 8950, 6)); err != nil {
		t.Fatal(err)
	}
	e.WaitMerges()
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the store in the old layout: one conn file holding the
	// whole memo, named by its CRC32, and no companions.
	legacy := connDump(e)
	legacyName := fmt.Sprintf("conn-%08x%s", crc32.ChecksumIEEE(legacy), segio.ConnExt)
	if err := segio.WriteFileAtomic(dir, legacyName, legacy); err != nil {
		t.Fatal(err)
	}
	for i := range m.Segments {
		os.Remove(filepath.Join(dir, m.Segments[i].Conn))
		m.Segments[i].Conn = ""
	}
	if err := segio.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segio.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	if err := segio.DecodeConn(legacy, func(uint64, float64) { entries++ }); err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte("{\n"), []byte(fmt.Sprintf("{\n  \"conn_file\": %q,\n  \"conn_entries\": %d,\n", legacyName, entries)), 1)
	if err := os.WriteFile(filepath.Join(dir, segio.ManifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded := NewEngine(g, persistTestOptions())
	if err := loaded.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	enginesEquivalent(t, e, loaded)
	if err := loaded.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if fileExists(dir, legacyName) {
		t.Fatalf("save kept the legacy conn file %s", legacyName)
	}
	if m, err = segio.ReadManifest(dir); err != nil {
		t.Fatal(err)
	}
	everySegmentCarriesCompanion(t, m)
	reopened := NewEngine(g, persistTestOptions())
	if err := reopened.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	if walks := reopened.IngestCounters().ConnWalks; walks != 0 {
		t.Fatalf("reopen after the upgrading save re-walked %d pairs", walks)
	}
	enginesEquivalent(t, e, reopened)
}
