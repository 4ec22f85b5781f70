package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/segio"
	"ncexplorer/internal/snapshot"
)

// Durable snapshot persistence. SaveSnapshot serializes the current
// snapshot's segments (plus their connectivity factors and a manifest)
// to a directory; OpenSnapshot loads them back into a freshly
// constructed engine. The load path skips the NLP/linking pipeline
// entirely — it decodes the immutable per-document indexing products
// and goes straight to the swap-time rescore every ingest already
// performs, with the persisted connectivity factors handed to the plan
// build so no random walk re-runs. Because the rescore is the same
// code path a from-scratch build ends with, and every sampled value is
// content-addressed by (concept, document) under the engine seed, a
// loaded engine answers every query byte-identically to the engine
// that saved it.
//
// The connectivity factors reach disk in one file kind: every segment
// file a save or checkpoint writes gets a conn companion holding that
// segment's walked plan rows, so a store reopened after a clean save
// or a crash walks nothing either way.
//
// Crash safety: segment and conn files are immutable and content-named;
// each is written via temp-file + fsync + atomic rename, and the
// MANIFEST — the only mutable object — is replaced the same way, last.
// A crash at any point leaves the previous manifest (and every file it
// references) fully intact; orphaned files from the interrupted save
// are collected by the next successful one.

// errNotPersisted marks persistence calls in the wrong lifecycle state.
var (
	errSaveBeforeIndex = errors.New("core: SaveSnapshot called before IndexCorpus")
	errOpenAfterIndex  = errors.New("core: OpenSnapshot called on an already-indexed engine")
)

// PersistCounters aggregates persistence activity for /statsz.
type PersistCounters struct {
	// Saves counts successful SaveSnapshot calls; Opens successful
	// OpenSnapshot calls; Checkpoints successful per-ingest (and
	// per-merge) incremental manifest updates.
	Saves       int64 `json:"saves"`
	Opens       int64 `json:"opens"`
	Checkpoints int64 `json:"checkpoints"`
	// SegmentsWritten / SegmentsReused split segment persistence into
	// files actually written vs files already on disk from an earlier
	// save (segments are immutable and content-named, so an unchanged
	// segment is never rewritten).
	SegmentsWritten int64 `json:"segments_written"`
	SegmentsReused  int64 `json:"segments_reused"`
	// BytesWritten / BytesRead total the file bytes moved by saves,
	// checkpoints, and opens.
	BytesWritten int64 `json:"bytes_written"`
	BytesRead    int64 `json:"bytes_read"`
	// CheckpointErrors counts failed checkpoint attempts. A checkpoint
	// failure never fails the ingest that triggered it — the in-memory
	// swap already happened — it means the data directory lags until
	// the next checkpoint or save succeeds.
	CheckpointErrors int64 `json:"checkpoint_errors"`
}

// Indirections over segio's write functions: tests inject write
// failures here to prove that a failed save leaves the previous
// manifest (and everything it references) intact.
var (
	// Artifact files defer the directory fsync: writeStore places every
	// segment/conn/watch file first, pays ONE syncSegioDir for all their
	// renames, and only then swaps the manifest — same crash ordering
	// (no manifest ever references a non-durable name), one directory
	// fsync per store instead of one per file.
	writeSegioFile     = segio.WriteFileDeferSync
	syncSegioDir       = segio.SyncDir
	writeSegioManifest = segio.WriteManifest
)

// persistState is the engine's persistence bookkeeping. The
// commit-side fields (checkpoint dir, world meta, watch encoder) are
// guarded by ingestMu; the writer-side fields (segFiles, segDelta,
// verified, lastWatchFile) are guarded by gc.writeMu, because the
// group-commit writer touches them off the commit path.
type persistState struct {
	saves, opens, checkpoints       atomic.Int64
	segmentsWritten, segmentsReused atomic.Int64
	bytesWritten, bytesRead         atomic.Int64
	checkpointErrors                atomic.Int64
	checkpointDir                   string
	world                           map[string]string
	// segFiles caches the content-addressed file name of segments
	// already encoded, so a checkpoint after an ingest re-encodes only
	// the new segment. Pruned to the live snapshot on every save.
	segFiles map[*snapshot.Segment]segio.SegmentRef
	// segDelta caches, for a merged segment that has never been encoded
	// into its own file, the refs of the durable files — its merge
	// parents', resolved through gc.lineage — that jointly cover its
	// documents. Checkpoints substitute these refs for the merged
	// segment instead of re-encoding O(corpus) bytes after every merge;
	// only SaveSnapshot compacts. Pruned to the live snapshot alongside
	// segFiles.
	segDelta map[*snapshot.Segment][]segio.SegmentRef
	// verified caches dir-qualified file names this process has already
	// confirmed (or written) on disk, so per-checkpoint existence checks
	// cost one stat per file per process instead of one per file per
	// checkpoint — without it the writer's stat count grows with every
	// batch since the last compaction. The engine itself never deletes a
	// verified file while it is referenced (checkpoint GC is
	// manifest-driven); external deletion is caught at open time by the
	// manifest's CRCs.
	verified map[string]bool
	// lastWatchFile is the content-addressed standing-query file the
	// newest manifest references. Checkpoints skip the directory-wide
	// garbage scan (a delta checkpoint never unreferences a file), so
	// a superseded watch file — the one exception — is removed here.
	lastWatchFile string
	// watchEnc, when set, renders the standing-query state (watchlists,
	// alert rings, delivery cursors) for manifest participation. It
	// returns nil when there is nothing to persist.
	watchEnc func() []byte
}

// PersistCounters returns the engine's persistence counters.
func (e *Engine) PersistCounters() PersistCounters {
	return PersistCounters{
		Saves:            e.persist.saves.Load(),
		Opens:            e.persist.opens.Load(),
		Checkpoints:      e.persist.checkpoints.Load(),
		SegmentsWritten:  e.persist.segmentsWritten.Load(),
		SegmentsReused:   e.persist.segmentsReused.Load(),
		BytesWritten:     e.persist.bytesWritten.Load(),
		BytesRead:        e.persist.bytesRead.Load(),
		CheckpointErrors: e.persist.checkpointErrors.Load(),
	}
}

// SetCheckpointDir enables (dir != "") or disables (dir == "")
// per-commit checkpointing: after every ingested batch and every
// background merge, the engine writes the affected segment files and
// atomically updates dir's manifest, so a crash loses at most the
// batches whose checkpoints had not drained — a -watch deployment
// restarts from its last durable segment instead of re-ingesting
// everything. The write itself runs in the group-commit writer (see
// groupcommit.go): Ingest returns a persist sequence and callers that
// need "durable before I respond" wait on it with WaitPersisted.
// world is carried into every manifest written (see SaveSnapshot).
func (e *Engine) SetCheckpointDir(dir string, world map[string]string) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.persist.checkpointDir = dir
	e.persist.world = world
	if dir == "" {
		// No writer will ever consume pending merge lineage; drop it so
		// it cannot pin folded segments.
		e.gc.clearLineage()
	}
}

// SaveSnapshot durably persists the current snapshot (segments, their
// conn companions, manifest) into dir, which is created if needed.
// world is an opaque facade-level map stored in the manifest for
// reconstruction (e.g. the synthetic-world scale). Save excludes writers — a batch
// racing with Ingest lands either entirely before or entirely after
// the saved generation — and never blocks queries. On any error the
// directory's previous manifest, if one exists, is untouched.
func (e *Engine) SaveSnapshot(dir string, world map[string]string) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if world != nil {
		e.persist.world = world
	}
	st := e.state()
	if st == nil {
		return errSaveBeforeIndex
	}
	// Drain the group-commit queue first (safe while holding ingestMu —
	// the writer never takes it): otherwise a stale queued checkpoint
	// could land after the save and swap an older manifest over it.
	e.drainPersist()
	var watch []byte
	hasWatch := e.persist.watchEnc != nil
	if hasWatch {
		watch = e.persist.watchEnc()
	}
	e.gc.writeMu.Lock()
	err := e.writeStore(dir, st, true, e.persist.world, watch, hasWatch)
	e.gc.writeMu.Unlock()
	if err != nil {
		return err
	}
	e.persist.saves.Add(1)
	return nil
}

// writeStore writes segments and their conn companions and swaps the
// manifest. compact (saves) encodes every live segment whole and sweeps
// the directory after the swap; checkpoints instead cover merged
// segments with delta refs and skip the sweep. world and watch are the
// manifest inputs captured at commit time — the writer must not read
// them from the engine, whose commit-side fields may have moved on.
// gc.writeMu must be held.
func (e *Engine) writeStore(dir string, st *genState, compact bool, world map[string]string, watch []byte, hasWatch bool) error {
	if err := ensureDir(dir); err != nil {
		return err
	}
	segs := st.snap.Segments
	if e.persist.segFiles == nil {
		e.persist.segFiles = make(map[*snapshot.Segment]segio.SegmentRef)
	}
	if e.persist.segDelta == nil {
		e.persist.segDelta = make(map[*snapshot.Segment][]segio.SegmentRef)
	}
	refs := make([]segio.SegmentRef, 0, len(segs))
	wrote := false // any deferred-sync file placed; one SyncDir before the manifest
	type pendingFile struct {
		name    string
		data    []byte
		segment bool // a segment file (else its conn companion)
	}
	var pend []pendingFile
	for _, seg := range segs {
		ref, ok := e.persist.segFiles[seg]
		var data []byte
		if !ok {
			// Delta checkpoint: a merged segment whose folded inputs are
			// already durable is covered by referencing their files — the
			// manifest's layout lags the in-memory segmentation, but the
			// documents and generation it describes are identical, and no
			// O(corpus) re-encode rides the writer. Saves compact to the
			// live layout instead.
			if !compact {
				if drefs, dok := e.resolveDeltaRefs(seg, dir); dok {
					e.persist.segDelta[seg] = drefs
					e.gc.purgeLineage(seg)
					e.persist.segmentsReused.Add(int64(len(drefs)))
					refs = append(refs, drefs...)
					continue
				}
			}
			data = segio.EncodeSegment(seg)
			ref = segio.SegmentRef{
				Base:    seg.Base,
				Docs:    seg.Len(),
				CRC:     crc32.ChecksumIEEE(data),
				MinTime: seg.MinTime,
				MaxTime: seg.MaxTime,
			}
			ref.File = segio.SegmentFileName(ref.Base, ref.Docs, ref.CRC)
			delete(e.persist.segDelta, seg)
			e.gc.purgeLineage(seg)
		}
		onDisk := e.knownFile(dir, ref.File)
		if onDisk {
			e.persist.segmentsReused.Add(1)
		} else {
			if data == nil {
				// Known segment but absent file (first save into a new
				// dir, or external deletion): re-encode.
				data = segio.EncodeSegment(seg)
			}
			pend = append(pend, pendingFile{name: ref.File, data: data, segment: true})
		}
		if ref.Conn == "" || !e.knownFile(dir, ref.Conn) {
			// Every segment carries a conn companion, so the store reopens
			// without re-walking its documents: a new segment, one whose
			// companion an earlier, failed attempt never placed, and one
			// opened from a store that predates companions. The content
			// derives from the plans, so a rewrite lands under the same
			// name. (A segment with no walked pair has none; re-checking
			// it is cheap.)
			ref.Conn = ""
			if conn := st.companionConn(ref.Base, ref.Docs); conn != nil {
				ref.Conn = segio.CompanionFileName(ref.Base, ref.Docs, conn)
				if !e.knownFile(dir, ref.Conn) {
					pend = append(pend, pendingFile{name: ref.Conn, data: conn})
				}
			}
		}
		e.persist.segFiles[seg] = ref
		refs = append(refs, ref)
	}
	// Place the new segment and companion files concurrently: each write
	// fsyncs its own file, and overlapping the fsyncs lets the filesystem
	// fold them into one journal commit instead of one per file — on a
	// single-CPU host a serial fsync also stalls every other goroutine
	// for its full duration, so the overlap is the difference between
	// paying the sync cost once and paying it per segment. Write order
	// within the group is free: nothing references a name until the
	// manifest below, which follows the group's SyncDir.
	if len(pend) > 0 {
		errs := make([]error, len(pend))
		var wg sync.WaitGroup
		for i := range pend {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = writeSegioFile(dir, pend[i].name, pend[i].data)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("core: writing %s: %w", pend[i].name, err)
			}
		}
		for _, p := range pend {
			e.markFile(dir, p.name)
			if p.segment {
				e.persist.segmentsWritten.Add(1)
			}
			e.persist.bytesWritten.Add(int64(len(p.data)))
		}
		wrote = true
	}
	// Prune the name caches to live segments so merge churn cannot grow
	// them without bound.
	for seg := range e.persist.segFiles {
		live := false
		for _, s := range segs {
			if s == seg {
				live = true
				break
			}
		}
		if !live {
			delete(e.persist.segFiles, seg)
		}
	}
	for seg := range e.persist.segDelta {
		live := false
		for _, s := range segs {
			if s == seg {
				live = true
				break
			}
		}
		if !live {
			delete(e.persist.segDelta, seg)
		}
	}

	m := &segio.Manifest{
		Generation: st.snap.Generation,
		NumDocs:    st.snap.NumDocs(),
		Segments:   refs,
		Engine:     e.engineMeta(),
		World:      world,
		Stats:      statsMeta(e.stats),
	}
	// A shard persists its cluster position and the remote term
	// statistics its global scores were computed under, so a warm reopen
	// (or a replica opening shipped segments) reproduces bit-identical
	// answers without talking to any peer first.
	if rs := e.remote.Load(); rs != nil {
		m.Shard = &segio.ShardMeta{
			Index:          e.shardIndex,
			Count:          e.shardCount,
			RemoteDocs:     rs.Docs,
			RemoteTotalLen: rs.TotalLen,
			RemoteDF:       rs.DF,
			RemoteBatches:  rs.Batches,
		}
	}
	// Standing-query state participates in the same atomic manifest
	// swap: the content-named file is written first, the manifest points
	// at it, and stale generations are garbage-collected after the swap.
	// Unlike segments the state is mutable, but each version is written
	// under its content hash, so an unchanged registry rewrites nothing
	// and a crash mid-save leaves the previous manifest's file intact.
	// The bytes were rendered at commit time (see persistJob.watch), so
	// the manifest pairs each batch with exactly the alerts it fired.
	if hasWatch {
		if data := watch; len(data) > 0 {
			name := segio.WatchFileName(data)
			if !e.knownFile(dir, name) {
				if err := writeSegioFile(dir, name, data); err != nil {
					return fmt.Errorf("core: writing watch state: %w", err)
				}
				wrote = true
				e.markFile(dir, name)
				e.persist.bytesWritten.Add(int64(len(data)))
			}
			m.WatchFile = name
		}
	}
	if wrote {
		// One directory fsync covers every artifact rename above; the
		// manifest below must not point at names that could vanish.
		if err := syncSegioDir(dir); err != nil {
			return fmt.Errorf("core: syncing store directory: %w", err)
		}
	}
	if err := writeSegioManifest(dir, m); err != nil {
		return fmt.Errorf("core: writing manifest: %w", err)
	}
	if compact {
		// Saves compact: the manifest may have stopped referencing delta
		// leaf files, folded segments, old companion/watch versions or a
		// pre-companion store's whole-memo conn file — sweep the
		// directory against it.
		for _, name := range segio.CollectGarbage(dir, m) {
			e.forgetFile(dir, name)
		}
	} else if old := e.persist.lastWatchFile; old != "" && old != m.WatchFile {
		// A delta checkpoint never unreferences a segment or conn file,
		// so the directory-wide garbage scan is skipped on the hot path;
		// the one file a checkpoint can supersede is the previous
		// standing-query version, removed point-wise after the swap.
		os.Remove(filepath.Join(dir, old))
		e.forgetFile(dir, old)
	}
	e.persist.lastWatchFile = m.WatchFile
	return nil
}

// resolveDeltaRefs returns on-disk refs that already cover seg's
// documents without encoding it: the segment's own file, a previously
// resolved delta, or — through merge lineage, recursively — the
// durable files of the segments a background merge folded into it.
// Parents appear in base order, so the flattened refs preserve the
// global document order the manifest promises. ok is false when
// nothing covers seg or any covering file is missing from dir (a
// parent's checkpoint was coalesced away, the directory changed,
// external deletion): the caller then encodes seg in full.
// gc.writeMu held.
func (e *Engine) resolveDeltaRefs(seg *snapshot.Segment, dir string) ([]segio.SegmentRef, bool) {
	if ref, ok := e.persist.segFiles[seg]; ok {
		if !e.refOnDisk(dir, ref) {
			return nil, false
		}
		return []segio.SegmentRef{ref}, true
	}
	if drefs, ok := e.persist.segDelta[seg]; ok {
		for _, ref := range drefs {
			if !e.refOnDisk(dir, ref) {
				return nil, false
			}
		}
		return drefs, true
	}
	var out []segio.SegmentRef
	for _, p := range e.gc.parentsOf(seg) {
		drefs, ok := e.resolveDeltaRefs(p, dir)
		if !ok {
			return nil, false
		}
		out = append(out, drefs...)
	}
	if out == nil {
		return nil, false
	}
	return out, true
}

// refOnDisk reports whether a ref's segment file and its conn
// companion, if it names one, are both in dir. A delta checkpoint
// carries parents' refs unchanged, companions included, so both must
// exist. gc.writeMu held.
func (e *Engine) refOnDisk(dir string, ref segio.SegmentRef) bool {
	return e.knownFile(dir, ref.File) && (ref.Conn == "" || e.knownFile(dir, ref.Conn))
}

// companionConn encodes the conn companion of the global document
// range [base, base+docs): the connectivity factor of every plan row
// with a positive ontology factor — exactly the pairs buildPlans walks
// in a cold build, and the pairs prewarmConn warms at ingest —
// in key order. Plans hold each concept's documents sorted, so the
// range is one binary search per concept, and concepts ascend in the
// outer loop, so the keys come out sorted. Nil when no row qualifies.
// Runs on the writer over the job's immutable state.
func (st *genState) companionConn(base int32, docs int) []byte {
	end := base + int32(docs)
	var keys []uint64
	var values []float64
	for c := range st.plans {
		p := &st.plans[c]
		if len(p.docs) == 0 || p.docs[len(p.docs)-1] < base || p.docs[0] >= end {
			continue
		}
		j, _ := slices.BinarySearch(p.docs, base)
		for ; j < len(p.docs) && p.docs[j] < end; j++ {
			if p.ont[j] > 0 {
				keys = append(keys, cdrKey(kg.NodeID(c), p.docs[j]))
				values = append(values, p.cdrc[j])
			}
		}
	}
	if len(keys) == 0 {
		return nil
	}
	return segio.EncodeConn(keys, values)
}

// SetWatchEncoder registers the standing-query state encoder consulted
// by every save and checkpoint. Pass nil to clear.
func (e *Engine) SetWatchEncoder(fn func() []byte) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.persist.watchEnc = fn
}

// Checkpoint persists the current snapshot (and standing-query state)
// to the configured checkpoint directory before returning, outside the
// ingest path — watchlist registration and removal use it so a
// restart between ingests does not forget them. A no-op without a
// checkpoint directory or before IndexCorpus; failures are counted in
// CheckpointErrors exactly like per-ingest checkpoint failures.
func (e *Engine) Checkpoint() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if st := e.state(); st != nil {
		e.checkpointSyncLocked(st)
	}
}

// OpenSnapshot loads a persisted snapshot into a freshly constructed
// engine (NewEngine with the same graph and options as the saver —
// the manifest's EngineMeta is cross-checked). It decodes every
// referenced segment and its conn companion, and derives the
// generation state through the same rescore an ingest performs — the
// companions' values handed to the plan build, so a store whose
// segments all carry one walks nothing — and the opened engine is
// indistinguishable from the one that saved: same generation, same
// scores, same answers. A failed open installs nothing, and the engine
// may open again.
func (e *Engine) OpenSnapshot(dir string, m *segio.Manifest) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.st.Load() != nil {
		return errOpenAfterIndex
	}
	if m == nil {
		var err error
		if m, err = segio.ReadManifest(dir); err != nil {
			return err
		}
	}
	if got, want := e.engineMeta(), m.Engine; !compatibleEngineMeta(got, want) {
		return fmt.Errorf("core: engine options %+v do not match saved snapshot %+v", got, want)
	}
	segs := make([]*snapshot.Segment, 0, len(m.Segments))
	for _, ref := range m.Segments {
		seg, n, err := segio.ReadSegmentFile(dir, ref)
		if err != nil {
			return err
		}
		if err := validateSegmentNodes(seg, e.g.NumNodes()); err != nil {
			return fmt.Errorf("segment file %s: %w", ref.File, err)
		}
		e.persist.bytesRead.Add(int64(n))
		segs = append(segs, seg)
	}
	known, err := e.readCompanions(dir, m)
	if err != nil {
		return err
	}
	// Remember the loaded segments' file identities so a later save
	// into the same directory rewrites nothing. (writeMu: these are
	// writer-side fields; no writer can be running before the first
	// index, but the lock keeps the invariant uniform.)
	e.gc.writeMu.Lock()
	if e.persist.segFiles == nil {
		e.persist.segFiles = make(map[*snapshot.Segment]segio.SegmentRef)
	}
	for i, seg := range segs {
		e.persist.segFiles[seg] = m.Segments[i]
	}
	e.gc.writeMu.Unlock()

	e.stats = statsFromMeta(m.Stats)
	if m.Shard != nil {
		e.shardIndex, e.shardCount = m.Shard.Index, m.Shard.Count
		e.remote.Store(&ShardStats{
			Docs:     m.Shard.RemoteDocs,
			TotalLen: m.Shard.RemoteTotalLen,
			DF:       m.Shard.RemoteDF,
			Batches:  m.Shard.RemoteBatches,
		})
		e.localGen.Store(m.Generation - m.Shard.RemoteBatches)
	} else {
		e.localGen.Store(m.Generation)
	}
	st, _ := e.buildState(m.Generation, segs, nil, known)
	e.st.Store(st)
	e.epoch.Add(1)
	e.persist.opens.Add(1)
	return nil
}

// readCompanions decodes every segment's conn companion into a
// key-sorted run, parallel to m.Segments, for the plan build. Each
// file is validated on its own: its name pins its FNV-1a
// (segio.ReadConnFile), DecodeConn checks CRC and canonical form (so
// keys ascend), and every key's document must lie in its own segment's
// range. The manifest keeps segments disjoint, so no two files can
// carry the same key. Nothing is installed unless every file passed:
// the runs reach the plan build only through a successful return. A
// segment without a companion (a store written before saves wrote
// them) gets a nil run and is simply walked.
func (e *Engine) readCompanions(dir string, m *segio.Manifest) ([][]connPair, error) {
	runs := make([][]connPair, len(m.Segments))
	for i, ref := range m.Segments {
		if ref.Conn == "" {
			continue
		}
		data, err := segio.ReadConnFile(dir, ref.Conn)
		if err != nil {
			return nil, err
		}
		e.persist.bytesRead.Add(int64(len(data)))
		staged := make([]connPair, 0, len(data)/16) // 16 bytes per entry
		lo, hi := uint32(ref.Base), uint32(ref.Base)+uint32(ref.Docs)
		var stray uint64
		var outside bool
		if err := segio.DecodeConn(data, func(k uint64, v float64) {
			if d := uint32(k); d < lo || d >= hi {
				stray, outside = k, true
			}
			staged = append(staged, connPair{key: k, val: v})
		}); err != nil {
			return nil, fmt.Errorf("conn-memo file %s: %w", ref.Conn, err)
		}
		if outside {
			return nil, fmt.Errorf("%w: conn-memo file %s: key %#x lies outside its segment's documents [%d, %d)",
				segio.ErrCorrupt, ref.Conn, stray, lo, hi)
		}
		runs[i] = staged
	}
	return runs, nil
}

// validateSegmentNodes checks every node ID the rescore path will feed
// into graph lookups against the graph's node count. The codec can only
// validate IDs structurally (non-negative, sorted); whether they exist
// is a property of THIS graph — a snapshot saved against a different
// world (or a world generator that changed shape under the same seed)
// must surface as typed corruption, not as an index-out-of-range panic
// inside the scorer.
func validateSegmentNodes(seg *snapshot.Segment, numNodes int) error {
	bad := func(kind string, id kg.NodeID) error {
		return fmt.Errorf("%w: %s node %d outside graph (%d nodes)", segio.ErrCorrupt, kind, id, numNodes)
	}
	for i := range seg.Docs {
		d := &seg.Docs[i]
		for _, v := range d.Entities {
			if int(v) >= numNodes {
				return bad("entity", v)
			}
		}
		for v := range d.EntityFreq {
			if int(v) >= numNodes {
				return bad("entity-frequency", v)
			}
		}
		for _, c := range d.Candidates {
			if int(c) >= numNodes {
				return bad("candidate", c)
			}
		}
	}
	for v := range seg.EntDocs {
		if int(v) >= numNodes {
			return bad("posting", v)
		}
	}
	return nil
}

// compatibleEngineMeta reports whether two engine-option sets agree on
// everything content-determining. MaxSegments is excluded: it is a
// storage policy, and callers may legitimately reopen with a different
// merge bound.
func compatibleEngineMeta(a, b segio.EngineMeta) bool {
	a.MaxSegments = b.MaxSegments
	return a == b
}

// engineMeta renders the content-determining engine options.
func (e *Engine) engineMeta() segio.EngineMeta {
	return segio.EngineMeta{
		Tau:               e.opts.Tau,
		Beta:              e.opts.Beta,
		Samples:           e.opts.Samples,
		Seed:              e.opts.Seed,
		MaxConceptsPerDoc: e.opts.MaxConceptsPerDoc,
		AncestorLevels:    e.opts.AncestorLevels,
		Exact:             e.opts.Exact,
		MaxSegments:       e.opts.MaxSegments,
	}
}

func statsMeta(s IndexStats) segio.StatsMeta {
	out := segio.StatsMeta{Docs: s.Docs, LinkNanos: s.LinkNanos, ScoreNanos: s.ScoreNanos}
	if len(s.PerSource) > 0 {
		out.PerSource = make(map[string]segio.SourceStatsMeta, len(s.PerSource))
		for src, ss := range s.PerSource {
			out.PerSource[src.String()] = segio.SourceStatsMeta{
				Articles:       ss.Articles,
				TotalMentions:  ss.TotalMentions,
				LinkedMentions: ss.LinkedMentions,
			}
		}
	}
	return out
}

func statsFromMeta(m segio.StatsMeta) IndexStats {
	out := IndexStats{Docs: m.Docs, LinkNanos: m.LinkNanos, ScoreNanos: m.ScoreNanos}
	if len(m.PerSource) > 0 {
		out.PerSource = make(map[corpus.Source]corpus.SourceStats, len(m.PerSource))
		for name, ss := range m.PerSource {
			for _, src := range corpus.Sources {
				if src.String() == name {
					out.PerSource[src] = corpus.SourceStats{
						Source:         src,
						Articles:       ss.Articles,
						TotalMentions:  ss.TotalMentions,
						LinkedMentions: ss.LinkedMentions,
					}
				}
			}
		}
	}
	return out
}

// ensureDir creates the snapshot directory if it does not exist.
func ensureDir(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

// fileExists reports whether dir/name exists as a regular file.
func fileExists(dir, name string) bool {
	info, err := os.Stat(filepath.Join(dir, name))
	return err == nil && info.Mode().IsRegular()
}

// knownFile is fileExists behind the writer's verified cache: each
// dir-qualified name is stat'd at most once per process, then trusted
// — the writer never deletes a file a manifest still references, so a
// positive answer stays true for the engine's own lifetime. markFile
// records a name the writer just wrote without re-statting it.
// gc.writeMu held.
func (e *Engine) knownFile(dir, name string) bool {
	key := filepath.Join(dir, name)
	if e.persist.verified[key] {
		return true
	}
	if !fileExists(dir, name) {
		return false
	}
	e.markFile(dir, name)
	return true
}

func (e *Engine) markFile(dir, name string) {
	if e.persist.verified == nil {
		e.persist.verified = make(map[string]bool)
	}
	e.persist.verified[filepath.Join(dir, name)] = true
}

// forgetFile drops a name from the verified cache (the writer removed
// or garbage-collected it). gc.writeMu held.
func (e *Engine) forgetFile(dir, name string) {
	delete(e.persist.verified, filepath.Join(dir, name))
}
