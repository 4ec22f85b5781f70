package ncexplorer

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ncexplorer/internal/segio"
	"ncexplorer/internal/xrand"
)

// queryFootprint runs a representative paged/filtered workload —
// RollUp pages (first and second page), DrillDown with explanations,
// and TopicKeywords — and marshals every result, so two explorers can
// be compared byte for byte. The request mix is derived from rnd, so
// every property-test iteration exercises different page sizes and
// offsets.
func queryFootprint(t *testing.T, x *Explorer, rnd *xrand.Rand) []byte {
	t.Helper()
	var out []any
	record := func(v any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	ctx := context.Background()
	for _, pair := range x.EvaluationTopics() {
		k := 3 + int(rnd.Uint64()%6)
		req := RollUpRequest{Concepts: []string{pair[0], pair[1]}, K: k, Explain: true}
		r1, err := x.RollUpQuery(ctx, req)
		record(r1, err)
		req.Offset = k
		record(x.RollUpQuery(ctx, req))
		record(x.RollUpQuery(ctx, RollUpRequest{
			Concepts: []string{pair[0]}, K: k, Sources: []string{"reuters", "nyt"},
		}))
		record(x.DrillDownQuery(ctx, DrillDownRequest{Concepts: []string{pair[0]}, K: k, Explain: true}))
		record(x.TopicKeywords(pair[0], 2+int(rnd.Uint64()%8)))
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// explorersEquivalent compares the full observable query surface of
// two explorers under the same randomized workload.
func explorersEquivalent(t *testing.T, a, b *Explorer, seed uint64, stage string) {
	t.Helper()
	if a.Generation() != b.Generation() || a.NumArticles() != b.NumArticles() {
		t.Fatalf("%s: shape diverges: gen %d/%d docs %d/%d",
			stage, a.Generation(), b.Generation(), a.NumArticles(), b.NumArticles())
	}
	fa := queryFootprint(t, a, xrand.New(seed))
	fb := queryFootprint(t, b, xrand.New(seed))
	if string(fa) != string(fb) {
		t.Fatalf("%s: query results diverge", stage)
	}
}

// TestSaveLoadPropertyEquivalence is the ISSUE's property test: for
// randomized corpora and ingest schedules, an engine reloaded from
// disk answers every query byte-identically to the never-persisted
// engine — at the generation that was saved, and at every generation
// reached afterwards by further ingests and merges. Runs under -race
// in CI.
func TestSaveLoadPropertyEquivalence(t *testing.T) {
	seeds := []uint64{42, 1337}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			rnd := xrand.New(seed * 977)
			// MaxSegments 2 keeps merges in play throughout.
			live, err := New(Config{Scale: "tiny", Seed: seed, MaxSegments: 2})
			if err != nil {
				t.Fatal(err)
			}

			// Random pre-save growth: 1–3 batches of 1–12 articles.
			ingestInto := func(xs []*Explorer, batchSeed uint64, n int) {
				t.Helper()
				arts, err := live.SampleArticles(batchSeed, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range xs {
					if _, err := x.Ingest(context.Background(), arts); err != nil {
						t.Fatal(err)
					}
					x.Quiesce()
				}
			}
			for i := uint64(0); i < 1+rnd.Uint64()%3; i++ {
				ingestInto([]*Explorer{live}, seed*100+i, 1+int(rnd.Uint64()%12))
			}

			dir := t.TempDir()
			if err := live.Save(dir); err != nil {
				t.Fatal(err)
			}
			if !HasSnapshot(dir) {
				t.Fatal("HasSnapshot is false after Save")
			}
			loaded, err := Open(dir, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			explorersEquivalent(t, live, loaded, seed^1, "after load")

			// Post-load growth: the same random batches into both; every
			// generation must stay equivalent (merges included — the tight
			// MaxSegments keeps folding segments).
			for i := uint64(0); i < 2+rnd.Uint64()%2; i++ {
				ingestInto([]*Explorer{live, loaded}, seed*200+i, 1+int(rnd.Uint64()%10))
				explorersEquivalent(t, live, loaded, seed^(2+i), "after post-load ingest")
			}

			// Second persistence generation: save the loaded engine, open
			// again, compare once more.
			dir2 := t.TempDir()
			if err := loaded.Save(dir2); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(dir2, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			explorersEquivalent(t, loaded, reopened, seed^99, "after second reload")

			// Persistence counters surface through Stats for /statsz.
			st := loaded.Stats()
			if st.Persist.Saves != 1 || st.Persist.Opens != 1 {
				t.Fatalf("persist stats = %+v", st.Persist)
			}
		})
	}
}

// TestOpenErrorMapping pins the facade's typed persistence errors:
// CodeNotFound for an empty directory, CodeCorruptSnapshot /
// CodeVersionMismatch for damaged stores — and never a partial
// Explorer alongside any of them.
func TestOpenErrorMapping(t *testing.T) {
	x := getExplorer(t)
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}

	expectCode := func(t *testing.T, dir string, want ErrorCode) {
		t.Helper()
		loaded, err := Open(dir, OpenOptions{})
		if loaded != nil {
			t.Fatal("error path returned a non-nil Explorer")
		}
		e, ok := AsError(err)
		if !ok || e.Code != want {
			t.Fatalf("err = %v (code %v), want code %v", err, e.Code, want)
		}
	}

	t.Run("no snapshot", func(t *testing.T) {
		if HasSnapshot(t.TempDir()) {
			t.Fatal("HasSnapshot true for empty dir")
		}
		expectCode(t, t.TempDir(), CodeNotFound)
	})
	t.Run("manifest not json", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			if err := os.WriteFile(filepath.Join(d, segio.ManifestName), []byte("not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		})
		expectCode(t, d, CodeCorruptSnapshot)
	})
	t.Run("future manifest version", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			rewriteManifestJSON(t, d, func(m map[string]any) { m["format_version"] = 99 })
		})
		expectCode(t, d, CodeVersionMismatch)
	})
	t.Run("flipped byte in segment file", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			m, err := segio.ReadManifest(d)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(d, m.Segments[0].File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		expectCode(t, d, CodeCorruptSnapshot)
	})
	t.Run("v3 segment file", func(t *testing.T) {
		// A store saved before format v4: a genuine v3 file under a
		// manifest whose CRC matches it. This build reads v4 only.
		legacy, err := os.ReadFile(filepath.Join("internal", "segio", "testdata", "legacy-v3-segment-0.ncseg"))
		if err != nil {
			t.Fatal(err)
		}
		d := corruptedCopy(t, dir, func(d string) {
			m, err := segio.ReadManifest(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, m.Segments[0].File), legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			m.Segments[0].CRC = crc32.ChecksumIEEE(legacy)
			if err := segio.WriteManifest(d, m); err != nil {
				t.Fatal(err)
			}
		})
		expectCode(t, d, CodeVersionMismatch)
	})
	t.Run("missing segment file", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			m, err := segio.ReadManifest(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(d, m.Segments[0].File)); err != nil {
				t.Fatal(err)
			}
		})
		expectCode(t, d, CodeCorruptSnapshot)
	})
	t.Run("flipped byte in conn companion", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			m, err := segio.ReadManifest(d)
			if err != nil {
				t.Fatal(err)
			}
			name := m.Segments[len(m.Segments)-1].Conn
			if name == "" {
				t.Fatal("saved segment carries no conn companion")
			}
			path := filepath.Join(d, name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		expectCode(t, d, CodeCorruptSnapshot)
	})
	t.Run("hostile conn_entries count", func(t *testing.T) {
		// conn_entries is a key of the retired whole-memo conn file that
		// the decoder ignores; negative or absurd values must neither panic
		// (makeslice) nor balloon allocations.
		for _, count := range []any{-7, int64(1) << 60} {
			d := corruptedCopy(t, dir, func(d string) {
				rewriteManifestJSON(t, d, func(m map[string]any) { m["conn_entries"] = count })
			})
			loaded, err := Open(d, OpenOptions{})
			if err != nil || loaded == nil {
				t.Fatalf("conn_entries=%v: open failed: %v", count, err)
			}
		}
	})
	t.Run("unknown world scale", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			rewriteManifestJSON(t, d, func(m map[string]any) {
				m["world"] = map[string]any{"scale": "galactic"}
			})
		})
		expectCode(t, d, CodeCorruptSnapshot)
	})
}

// TestOpenErrorPrecedence: with two damaged files, Open reports the one
// a serial read meets first, whatever the timing of its world and file
// lanes, and every failed Open leaves the goroutine count where it
// found it.
func TestOpenErrorPrecedence(t *testing.T) {
	x, err := New(Config{Scale: "tiny", MaxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		arts, err := x.SampleArticles(700+i, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Ingest(context.Background(), arts); err != nil {
			t.Fatal(err)
		}
	}
	x.Quiesce()
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := segio.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) < 3 || m.Segments[0].Conn == "" {
		t.Fatalf("store has %d segments (first companion %q); want ≥ 3 with a companion", len(m.Segments), m.Segments[0].Conn)
	}
	edit := func(d, name string, fn func([]byte)) {
		path := filepath.Join(d, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fn(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openFails := func(t *testing.T, d string, want ErrorCode, mention string) {
		t.Helper()
		baseline := runtime.NumGoroutine()
		loaded, err := Open(d, OpenOptions{})
		if e, ok := AsError(err); loaded != nil || !ok || e.Code != want || !strings.Contains(err.Error(), mention) {
			t.Fatalf("Open = %v, %v; want code %v naming %s", loaded, err, want, mention)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines = %d after a failed Open, baseline %d", runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("version skew before a later corrupt segment", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			edit(d, m.Segments[0].File, func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], binary.LittleEndian.Uint16(b[4:6])+1) })
			edit(d, m.Segments[1].File, func(b []byte) { b[len(b)/2] ^= 0x01 })
		})
		for i := 0; i < 20; i++ {
			openFails(t, d, CodeVersionMismatch, m.Segments[0].File)
		}
	})
	t.Run("missing segment before a corrupt companion", func(t *testing.T) {
		d := corruptedCopy(t, dir, func(d string) {
			edit(d, m.Segments[0].Conn, func(b []byte) { b[len(b)/2] ^= 0x01 })
			if err := os.Remove(filepath.Join(d, m.Segments[2].File)); err != nil {
				t.Fatal(err)
			}
		})
		openFails(t, d, CodeCorruptSnapshot, m.Segments[2].File)
	})
}

// TestOpenStageClocks: /statsz index.persist.last_open is all zero on
// an Explorer that was not opened, and splits an Open into its stages.
func TestOpenStageClocks(t *testing.T) {
	x := getExplorer(t)
	if c := x.Stats().Persist.LastOpen; c != (OpenClocks{}) {
		t.Fatalf("LastOpen before any open = %+v, want zero", c)
	}
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := y.Stats().Persist.LastOpen
	if c.WorldMS <= 0 || c.FilesMS <= 0 || c.BuildMS <= 0 || c.WallMS < c.BuildMS {
		t.Fatalf("LastOpen = %+v, want every stage > 0 and wall ≥ build", c)
	}
	body, err := json.Marshal(y.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"last_open":{"world_ms":`, `"files_ms":`, `"build_ms":`, `"wall_ms":`} {
		if !strings.Contains(string(body), key) {
			t.Fatalf("stats JSON lacks %s: %s", key, body)
		}
	}
}

// corruptedCopy clones a saved snapshot directory and applies damage.
func corruptedCopy(t *testing.T, src string, damage func(dir string)) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(dst)
	return dst
}

// rewriteManifestJSON round-trips the manifest through a generic map
// so tests can damage individual fields.
func rewriteManifestJSON(t *testing.T, dir string, mutate func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, segio.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSaveOpenPreservesStats: a warm-started explorer reports the same
// world dimensions and build stats as the one that saved (the /statsz
// continuity a restarted deployment expects).
func TestSaveOpenPreservesStats(t *testing.T) {
	x := getExplorer(t)
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := x.Stats(), y.Stats()
	// Persistence and cache counters legitimately differ; blank them
	// and compare everything else.
	a.Persist, b.Persist = PersistCounters{}, PersistCounters{}
	a.EngineCache, b.EngineCache = EngineCacheStats{}, EngineCacheStats{}
	a.Ingest, b.Ingest = IngestCounters{}, IngestCounters{}
	// The reachability index is a per-process walk cache: the builder
	// walked, the warm-opened process loaded its connectivity factors
	// from the conn companions and never does.
	if a.Reach.Builds == 0 || a.Reach.Bytes == 0 || b.Reach != (ReachCounters{}) {
		t.Fatalf("reach counters: built %+v, opened %+v", a.Reach, b.Reach)
	}
	a.Reach = ReachCounters{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats diverge:\n saved:  %+v\n loaded: %+v", a, b)
	}
	if got := y.Stats().Persist.Opens; got != 1 {
		t.Fatalf("loaded explorer Opens = %d", got)
	}
}

// TestSaveToFileAsDirFails: a data path that cannot hold a directory
// yields an error (and, with no previous manifest, HasSnapshot stays
// false) — the facade half of the ncserver shutdown contract.
func TestSaveToFileAsDirFails(t *testing.T) {
	x := getExplorer(t)
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(file, "store")
	if err := x.Save(target); err == nil {
		t.Fatal("Save into a file-as-dir path succeeded")
	} else if strings.TrimSpace(err.Error()) == "" {
		t.Fatal("empty error message")
	}
	if HasSnapshot(target) {
		t.Fatal("HasSnapshot true after failed save")
	}
}

// storeDigest hashes the names and bytes of every file in dir whose
// name has one of the given extensions, in name order: equal digests
// mean byte-identical file sets.
func storeDigest(t *testing.T, dir string, exts ...string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ent := range entries {
		name := ent.Name()
		if !slices.ContainsFunc(exts, func(ext string) bool { return strings.HasSuffix(name, ext) }) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLiveFeedCrashReopenWalksNothing pins the durable connectivity
// factors at the live_feed benchmark's shape: a default-scale world
// takes 8 × 512 articles and a clean save, then 80 × 32 checkpointed
// articles and no save. A copy of that directory — what a SIGKILL
// leaves — opens without a single random walk (the segments' conn
// companions cover every pair), as does an open of the clean save that
// follows; both answer roll-up and drill-down byte-identically. The
// segment files of both stores are pinned (format v4: the DOCS and
// ARTS sections v3 wrote, without the derived TEXT, POST and BMAX),
// and the clean save's companions are pinned too. The checkpointed
// directory is a function of the committed state, so each batch only
// waits for its own durability, as a server does: the writer may
// coalesce checkpoints, and the directory holds exactly the files its
// manifest names, at most 1+16 per live segment.
func TestLiveFeedCrashReopenWalksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale world")
	}
	const (
		// SHA-256 over the schedule's seg-*.ncseg files after the
		// checkpointed ingests, and over the seg-*.ncseg and the
		// segconn-*.nccm files of the clean save that follows.
		crashSegments   = "a2696705fe31ccd4e5bb422063d50dec3f9fd077b950d2ea70286c3fb9cb4ae0"
		cleanSegments   = "d7f5c2b26691e49918371df7be676a134a9b5fd58bf7a99192c86566341a95f4"
		cleanCompanions = "7376c2bdf6bf3e2cf3bb6c93cda12c345e6d4d5f22851de22488cb6e5aba229b"
	)
	ctx := context.Background()
	x, err := New(Config{Scale: "default", Seed: 42, MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(seed uint64, n int) {
		t.Helper()
		arts, err := x.SampleArticles(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.Ingest(ctx, arts)
		if err != nil {
			t.Fatal(err)
		}
		x.WaitDurable(res.PersistSeq)
		x.Quiesce()
	}
	dir := t.TempDir()
	for i := uint64(0); i < 8; i++ {
		ingest(9100+i, 512)
	}
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	x.CheckpointTo(dir)
	saved := x.Stats().Persist.BytesWritten
	for i := uint64(0); i < 80; i++ {
		ingest(9200+i, 32)
	}

	crashDir := corruptedCopy(t, dir, func(string) {})
	if got := storeDigest(t, crashDir, segio.SegmentExt); got != crashSegments {
		t.Errorf("checkpointed segment files digest %s, want %s", got, crashSegments)
	}
	m, err := segio.ReadManifest(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	live := len(x.Engine().SegmentSizes())
	t.Logf("crash manifest: %d refs for %d live segments; checkpoints wrote %d bytes",
		len(m.Segments), live, x.Stats().Persist.BytesWritten-saved)
	if len(m.Segments) > live*(1+16) || len(m.Segments) > 22 {
		t.Errorf("crash manifest holds %d refs for %d live segments; want at most %d and at most 22",
			len(m.Segments), live, live*(1+16))
	}
	entries, err := os.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	named := m.Files()
	for _, ent := range entries {
		if name := ent.Name(); name != segio.ManifestName && !slices.Contains(named, name) {
			t.Errorf("checkpointed directory holds %s, which its manifest does not name", name)
		}
	}
	start := time.Now()
	crashed, err := Open(crashDir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("post-crash open: %v", time.Since(start))
	if walks := crashed.Stats().Ingest.ConnWalks; walks != 0 {
		t.Errorf("post-crash open re-walked %d pairs", walks)
	}

	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got := storeDigest(t, dir, segio.SegmentExt); got != cleanSegments {
		t.Errorf("clean save segment files digest %s, want %s", got, cleanSegments)
	}
	if got := storeDigest(t, dir, segio.ConnExt); got != cleanCompanions {
		t.Errorf("clean save conn companions digest %s, want %s", got, cleanCompanions)
	}
	start = time.Now()
	clean, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean open: %v", time.Since(start))
	if walks := clean.Stats().Ingest.ConnWalks; walks != 0 {
		t.Errorf("clean open re-walked %d pairs", walks)
	}
	explorersEquivalent(t, clean, crashed, 42, "post-crash open vs clean open")
}
