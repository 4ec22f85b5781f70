package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ncexplorer/internal/segio"
	"ncexplorer/internal/xrand"
)

// span is a segment's (or a manifest ref's) document range.
type span struct {
	base int32
	docs int
}

func stateSpans(st *genState) []span {
	out := make([]span, len(st.snap.Segments))
	for i, seg := range st.snap.Segments {
		out[i] = span{seg.Base, seg.Len()}
	}
	return out
}

func manifestSpans(m *segio.Manifest) []span {
	out := make([]span, len(m.Segments))
	for i, ref := range m.Segments {
		out[i] = span{ref.Base, ref.Docs}
	}
	return out
}

// expectedRefs models refs(S) from document ranges alone, over a state
// sequence that folds at most one adjacent pair per commit: a segment
// present before keeps its cover, a new range after the previous ones
// is a batch covered by its own file, and a range spanning two previous
// segments is covered by their covers, concatenated, while that holds
// at most 1+maxDeltaRefs ranges, and by its own file past it. whole
// counts the merged segments covered by their own file.
func expectedRefs(t *testing.T, first []span, states [][]span) (out [][]span, whole int) {
	t.Helper()
	covers := map[span][]span{}
	for _, s := range first {
		covers[s] = []span{s}
	}
	prev := first
	out = make([][]span, len(states))
	for k, segs := range states {
		next := map[span][]span{}
		for _, s := range segs {
			cover, ok := covers[s]
			if !ok {
				var parents int
				var parts []span
				for _, p := range prev {
					if p.base >= s.base && p.base+int32(p.docs) <= s.base+int32(s.docs) {
						parents++
						parts = append(parts, covers[p]...)
					}
				}
				switch {
				case parents == 0:
					cover = []span{s}
				case len(parts) > 1+maxDeltaRefs:
					cover = []span{s}
					whole++
				case parents == 2:
					cover = parts
				default:
					t.Fatalf("state %d folds %d segments into %v; the model takes one pair per commit", k, parents, s)
				}
			}
			next[s] = cover
			out[k] = append(out[k], cover...)
		}
		covers, prev = next, segs
	}
	return out, whole
}

// TestCheckpointDirDeterministic: the checkpoint directory is a
// function of the committed state. One seeded sequence of ingests (each
// followed by its background merge), SetRemoteStats and Checkpoint
// calls runs twice from the same opened store: once with every job
// written, once with the writer held inside each manifest write so that
// the one-slot queue coalesces as much as it can (released only for
// the calls that wait for durability). Every manifest written names
// exactly refs(S) of the state it describes, as expectedRefs models it,
// and the two final directories are byte-identical, names and contents.
func TestCheckpointDirDeterministic(t *testing.T) {
	g, _, c, _ := world(t)
	ctx := context.Background()
	opts := Options{Seed: 11, Samples: 20, MaxSegments: 2}
	seedDir := t.TempDir()
	seed := NewEngine(g, opts)
	seed.IndexCorpusSharded(c, 0, 2)
	if err := seed.SaveSnapshot(seedDir, nil); err != nil {
		t.Fatal(err)
	}
	remote := seed.RemoteStatsSnapshot()
	r := xrand.New(51)
	var ops []int // 0: SetRemoteStats, 1: Checkpoint, n > 1: ingest n-1 articles
	for i := 0; i < 48; i++ {
		ops = append(ops, r.Intn(6))
	}

	origManifest := writeSegioManifest
	defer func() { writeSegioManifest = origManifest }()
	type result struct {
		dir       string
		first     []span
		states    [][]span
		manifests []*segio.Manifest
	}
	run := func(coalesce bool) result {
		e := NewEngine(g, opts)
		if err := e.OpenSnapshot(seedDir, nil); err != nil {
			t.Fatal(err)
		}
		res := result{dir: t.TempDir(), first: stateSpans(e.state())}
		var mu sync.Mutex
		var gate sync.Mutex // held by the test while the writer may not finish
		writeSegioManifest = func(d string, m *segio.Manifest) error {
			if coalesce {
				gate.Lock()
				gate.Unlock()
			}
			mu.Lock()
			cp := *m
			res.manifests = append(res.manifests, &cp)
			mu.Unlock()
			return origManifest(d, m)
		}
		// The encoder runs as each commit captures its job: it records
		// the state, and, to write every job, first waits until the
		// previous job is written, so the queue never holds two.
		e.SetWatchEncoder(func() []byte {
			res.states = append(res.states, stateSpans(e.state()))
			if !coalesce {
				e.gc.mu.Lock()
				prev := e.gc.seq - 1
				e.gc.mu.Unlock()
				e.WaitPersisted(prev)
			}
			return nil
		})
		e.SetCheckpointDir(res.dir, nil)
		if coalesce {
			gate.Lock()
		}
		durable := func(f func()) {
			if coalesce {
				gate.Unlock()
				defer gate.Lock()
			}
			f()
		}
		batches := remote.Batches
		for i, op := range ops {
			switch op {
			case 0:
				batches++
				rs := remote
				rs.Batches = batches
				durable(func() {
					if err := e.SetRemoteStats(rs); err != nil {
						t.Fatal(err)
					}
				})
			case 1:
				durable(e.Checkpoint)
			default:
				if _, err := e.Ingest(ctx, ingestBatch(t, 9500+uint64(i), op-1)); err != nil {
					t.Fatal(err)
				}
				e.mergeWG.Wait()
			}
		}
		if coalesce {
			gate.Unlock()
		}
		e.WaitMerges()
		mu.Lock()
		defer mu.Unlock()
		return res
	}
	every, held := run(false), run(true)

	if !reflect.DeepEqual(every.states, held.states) {
		t.Fatal("the two runs committed different state sequences")
	}
	want, whole := expectedRefs(t, every.first, every.states)
	if whole == 0 {
		t.Fatal("no merged cover passed the bound; the sequence should fold one whole")
	}
	if len(every.manifests) != len(every.states) {
		t.Fatalf("%d manifests written for %d commits; every job should be written", len(every.manifests), len(every.states))
	}
	if len(held.manifests) >= len(held.states) {
		t.Fatalf("held writer wrote %d manifests for %d commits; it should have coalesced", len(held.manifests), len(held.states))
	}
	for k, m := range every.manifests {
		if got := manifestSpans(m); !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("commit %d: manifest names %v, refs(S) is %v", k, got, want[k])
		}
	}
	// A held manifest describes some commit at or after the previous
	// one's, and names exactly that state's refs.
	k := 0
	for _, m := range held.manifests {
		for k < len(want) && !reflect.DeepEqual(manifestSpans(m), want[k]) {
			k++
		}
		if k == len(want) {
			t.Fatalf("held writer's manifest at generation %d names %v, no refs(S) of a later commit", m.Generation, manifestSpans(m))
		}
	}
	a, b := dirFiles(t, every.dir), dirFiles(t, held.dir)
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s differs between the final directories", name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			t.Errorf("%s is only in the held writer's final directory", name)
		}
	}
	t.Logf("%d commits, %d manifests written by the held writer, final manifest %d refs",
		len(every.states), len(held.manifests), len(want[len(want)-1]))
}

// dirFiles reads every file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
	}
	return out
}

// assertNoOrphans fails unless every file in dir is the manifest or a
// file it names.
func assertNoOrphans(t *testing.T, dir string) *segio.Manifest {
	t.Helper()
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	named := m.Files()
	for name := range dirFiles(t, dir) {
		if name != segio.ManifestName && !slices.Contains(named, name) {
			t.Errorf("%s is in the directory but not named by its manifest", name)
		}
	}
	return m
}

// TestCheckpointLeavesNoOrphans: at the live_feed shape, scaled to the
// tiny world — a clean save, then small batches each waited on as a
// server waits, with a standing-query state that changes every batch —
// the directory holds exactly the files its manifest names after every
// batch: the previous manifest's files it no longer names are removed
// at each swap, including the superseded watch file. A stale file from
// an earlier process goes at the first write, and the files of a
// failed attempt at the next success. The manifest holds at most
// 1+maxDeltaRefs refs per live segment, and a copy of the directory
// (what a crash leaves) reopens equivalent, walking nothing.
func TestCheckpointLeavesNoOrphans(t *testing.T) {
	g, _, c, _ := world(t)
	ctx := context.Background()
	opts := Options{Seed: 11, Samples: 20, MaxSegments: 4}
	e := NewEngine(g, opts)
	e.IndexCorpus(c)
	for i := 0; i < 4; i++ {
		if _, err := e.Ingest(ctx, ingestBatch(t, 9600+uint64(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitMerges()
	dir := t.TempDir()
	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	stale := segio.SegmentFileName(1<<20, 1, 0)
	if err := os.WriteFile(filepath.Join(dir, stale), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	e = NewEngine(g, opts)
	if err := e.OpenSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	e.SetWatchEncoder(func() []byte { return fmt.Appendf(nil, "watch state at generation %d", e.Generation()) })
	e.SetCheckpointDir(dir, nil)
	origManifest := writeSegioManifest
	defer func() { writeSegioManifest = origManifest }()
	injected := errors.New("injected manifest failure")
	for i := 0; i < 40; i++ {
		failing := i == 20
		if failing {
			writeSegioManifest = func(string, *segio.Manifest) error { return injected }
		}
		res, err := e.Ingest(ctx, ingestBatch(t, 9700+uint64(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		e.WaitPersisted(res.PersistSeq)
		e.WaitMerges()
		if failing {
			writeSegioManifest = origManifest
			continue
		}
		m := assertNoOrphans(t, dir)
		if live := len(e.SegmentSizes()); len(m.Segments) > live*(1+maxDeltaRefs) {
			t.Fatalf("batch %d: manifest holds %d refs for %d live segments", i, len(m.Segments), live)
		}
		if m.WatchFile == "" {
			t.Fatalf("batch %d: manifest names no watch file", i)
		}
	}
	if n := e.PersistCounters().CheckpointErrors; n == 0 {
		t.Fatal("the injected manifest failure was not counted")
	}
	crash := filepath.Join(t.TempDir(), "crash")
	if err := copyDir(dir, crash); err != nil {
		t.Fatal(err)
	}
	reopened := NewEngine(g, opts)
	if err := reopened.OpenSnapshot(crash, nil); err != nil {
		t.Fatal(err)
	}
	if walks := reopened.IngestCounters().ConnWalks; walks != 0 {
		t.Fatalf("crash copy reopened walking %d pairs", walks)
	}
	enginesEquivalent(t, e, reopened)
}

// TestWriterDurabilityOrder pins the writer's crash ordering through
// its three seams: a save and a checkpoint place every new file, then
// sync the directory once, then swap the manifest, so no manifest ever
// names a file whose rename a crash could lose. A failing directory
// sync leaves the previous manifest untouched: a checkpoint counts it
// in CheckpointErrors, a save returns it. The next successful write
// names or removes the files the failed attempts placed.
func TestWriterDurabilityOrder(t *testing.T) {
	g, _, c, _ := world(t)
	ctx := context.Background()
	e := NewEngine(g, persistTestOptions())
	e.IndexCorpus(c)
	dir := t.TempDir()
	var (
		mu      sync.Mutex
		events  []string
		syncErr error
	)
	record := func(ev string) error {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
		if ev == "sync" {
			return syncErr
		}
		return nil
	}
	origFile, origSync, origManifest := writeSegioFile, syncSegioDir, writeSegioManifest
	defer func() { writeSegioFile, syncSegioDir, writeSegioManifest = origFile, origSync, origManifest }()
	writeSegioFile = func(d, name string, data []byte) error {
		record("file")
		return origFile(d, name, data)
	}
	syncSegioDir = func(d string) error {
		if err := record("sync"); err != nil {
			return err
		}
		return origSync(d)
	}
	writeSegioManifest = func(d string, m *segio.Manifest) error {
		record("manifest")
		return origManifest(d, m)
	}
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := events
		events = nil
		return out
	}
	ordered := func(stage string, ev []string) {
		t.Helper()
		n := len(ev)
		if n < 3 || ev[n-2] != "sync" || ev[n-1] != "manifest" ||
			slices.ContainsFunc(ev[:n-2], func(e string) bool { return e != "file" }) {
			t.Fatalf("%s: writer did %v; want every file, then one directory sync, then the manifest", stage, ev)
		}
	}
	checkpoint := func(seed uint64) {
		t.Helper()
		res, err := e.Ingest(ctx, ingestBatch(t, seed, 3))
		if err != nil {
			t.Fatal(err)
		}
		e.WaitPersisted(res.PersistSeq)
		e.WaitMerges()
	}
	manifest := func() string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, segio.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	if err := e.SaveSnapshot(dir, nil); err != nil {
		t.Fatal(err)
	}
	ordered("save", take())
	e.SetCheckpointDir(dir, nil)
	checkpoint(9800)
	ordered("checkpoint", take())

	before := manifest()
	mu.Lock()
	syncErr = errors.New("injected directory sync failure")
	mu.Unlock()
	checkpoint(9801)
	if ev := take(); slices.Contains(ev, "manifest") || !slices.Contains(ev, "sync") {
		t.Fatalf("checkpoint with a failing directory sync did %v; want files and the sync, no manifest", ev)
	}
	if n := e.PersistCounters().CheckpointErrors; n != 1 {
		t.Fatalf("CheckpointErrors = %d after a failed directory sync, want 1", n)
	}
	if err := e.SaveSnapshot(dir, nil); !errors.Is(err, syncErr) {
		t.Fatalf("save with a failing directory sync returned %v", err)
	}
	if manifest() != before {
		t.Fatal("a failed directory sync disturbed the previous manifest")
	}
	take()
	mu.Lock()
	syncErr = nil
	mu.Unlock()
	checkpoint(9802)
	ordered("checkpoint after the failures", take())
	assertNoOrphans(t, dir)
}
