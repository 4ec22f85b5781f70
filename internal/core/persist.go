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
	"time"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/segio"
	"ncexplorer/internal/snapshot"
)

// Durable snapshot persistence. SaveSnapshot serializes the current
// snapshot's segments (plus their connectivity factors and a manifest)
// to a directory; ReadStore decodes them and OpenStore installs them in
// a freshly constructed engine. The load path skips the NLP/linking
// pipeline entirely — it decodes the immutable per-document indexing
// products and goes straight to the swap-time rescore every ingest
// already performs, with the persisted connectivity factors handed to
// the plan build so no random walk re-runs. It comes in two steps:
// ReadStore decodes the files without a graph, so a caller may run it
// while the graph and engine are still being built, and OpenStore does
// everything that needs the graph. Because the rescore is the same
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
	errOpenAfterIndex  = errors.New("core: opening a store on an already-indexed engine")
)

// PersistCounters aggregates persistence activity for /statsz.
type PersistCounters struct {
	// Saves counts successful SaveSnapshot calls; Opens successful
	// OpenStore calls; Checkpoints successful per-ingest (and
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
	// LastOpen splits the newest successful open into its stages.
	LastOpen OpenClocks `json:"last_open"`
}

// OpenClocks are the stage wall times of one open, in milliseconds:
// World regenerates the graph and constructs the engine, Files is
// ReadStore, Build is OpenStore's install, and Wall is the open end to
// end. The facade's Open runs World and Files at once, so Wall may be
// less than their sum. All zero before the first open.
type OpenClocks struct {
	WorldMS float64 `json:"world_ms"`
	FilesMS float64 `json:"files_ms"`
	BuildMS float64 `json:"build_ms"`
	WallMS  float64 `json:"wall_ms"`
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

// maxDeltaRefs bounds a merged segment's cover: while its parents'
// covers, concatenated, hold at most 1+maxDeltaRefs files, checkpoints
// reference those files instead of encoding the merged segment; past
// that, the merged segment is encoded whole. Writing every merge whole
// would re-encode the growing tail on each small batch (56 times the
// batch bytes on the live_feed schedule); an unbounded cover would let
// the manifest, and the files an open reads, grow with every batch
// since the last save.
const maxDeltaRefs = 16

// coverLeaf is one file of a merged segment's cover: the segment whose
// file it is, until the write that first covers it encodes (or finds)
// that file, and the file's ref from then on. Merges share leaves by
// pointer, so a leaf resolved once stays resolved in every later cover
// and pins its segment no longer than that first write. seg and ref
// are the writer's (gc.writeMu).
type coverLeaf struct {
	seg *snapshot.Segment
	ref segio.SegmentRef
}

// persistState is the engine's persistence bookkeeping. The
// commit-side fields (checkpoint dir, world meta, covers, watch
// encoder) are guarded by ingestMu; the writer-side fields (files,
// verified, lastDir, lastFiles) are guarded by gc.writeMu, because the
// group-commit writer touches them off the commit path.
type persistState struct {
	saves, opens, checkpoints       atomic.Int64
	segmentsWritten, segmentsReused atomic.Int64
	bytesWritten, bytesRead         atomic.Int64
	checkpointErrors                atomic.Int64
	lastOpen                        atomic.Pointer[OpenClocks]
	checkpointDir                   string
	world                           map[string]string
	// covers maps each live merged segment that checkpoints cover with
	// other files to those files' leaves. It is a function of the merge
	// lineage since the last save, open or checkpoint-directory change,
	// fixed as each merge commits (fold): a segment without an entry is
	// covered by its own file. Nothing in it depends on which jobs the
	// writer skipped, so neither does any manifest.
	covers map[*snapshot.Segment][]*coverLeaf
	// files caches, per segment whose own file a write placed or found,
	// that file's ref, so a checkpoint re-encodes only new segments.
	// Pruned to the written state's live segments on every write.
	files map[*snapshot.Segment]segio.SegmentRef
	// verified caches dir-qualified file names this process has already
	// confirmed (or written) on disk, so per-checkpoint existence checks
	// cost one stat per file per process instead of one per file per
	// checkpoint. The writer forgets every name it removes, and never
	// removes a name a later manifest may reference; external deletion
	// is caught at open time by the manifest's CRCs.
	verified map[string]bool
	// lastDir and lastFiles name the directory of the newest manifest
	// this process wrote and the files it references. The next write
	// into lastDir removes the ones its manifest drops; any other write
	// (the first into a directory, the first after a failed attempt)
	// sweeps the directory against its manifest instead.
	lastDir   string
	lastFiles []string
	// watchEnc, when set, renders the standing-query state (watchlists,
	// alert rings, delivery cursors) for manifest participation. It
	// returns nil when there is nothing to persist.
	watchEnc func() []byte
}

// fold records a merge of a and b into merged for later checkpoints:
// merged is covered by the concatenation of its parents' covers while
// that holds at most 1+maxDeltaRefs files, and by its own file past
// it. The parents are no longer live, so their entries go. ingestMu
// held.
func (p *persistState) fold(merged, a, b *snapshot.Segment) {
	cover := append(slices.Clip(p.coverOf(a)), p.coverOf(b)...)
	delete(p.covers, a)
	delete(p.covers, b)
	if len(cover) <= 1+maxDeltaRefs {
		if p.covers == nil {
			p.covers = make(map[*snapshot.Segment][]*coverLeaf)
		}
		p.covers[merged] = cover
	}
}

func (p *persistState) coverOf(seg *snapshot.Segment) []*coverLeaf {
	if cover, ok := p.covers[seg]; ok {
		return cover
	}
	return []*coverLeaf{{seg: seg}}
}

// PersistCounters returns the engine's persistence counters.
func (e *Engine) PersistCounters() PersistCounters {
	pc := PersistCounters{
		Saves:            e.persist.saves.Load(),
		Opens:            e.persist.opens.Load(),
		Checkpoints:      e.persist.checkpoints.Load(),
		SegmentsWritten:  e.persist.segmentsWritten.Load(),
		SegmentsReused:   e.persist.segmentsReused.Load(),
		BytesWritten:     e.persist.bytesWritten.Load(),
		BytesRead:        e.persist.bytesRead.Load(),
		CheckpointErrors: e.persist.checkpointErrors.Load(),
	}
	if c := e.persist.lastOpen.Load(); c != nil {
		pc.LastOpen = *c
	}
	return pc
}

// SetCheckpointDir enables (dir != "") or disables (dir == "")
// per-commit checkpointing: after every ingested batch and every
// background merge, the engine writes the affected segment files and
// atomically updates dir's manifest, so a crash loses at most the
// batches whose checkpoints had not drained — a server fed through
// POST /v2/ingest restarts from its last durable segment instead of
// re-ingesting everything. The write itself runs in the group-commit
// writer (see groupcommit.go): Ingest returns a persist sequence and
// callers that need "durable before I respond" wait on it with
// WaitPersisted. world is carried into every manifest written (see
// SaveSnapshot).
func (e *Engine) SetCheckpointDir(dir string, world map[string]string) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.persist.checkpointDir = dir
	e.persist.world = world
	// Covers restart from the live segments' own files: leaves resolved
	// into another directory name no file here, and a disabled writer
	// would never release the segments pending ones pin.
	e.persist.covers = nil
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
	err := e.writeStore(&persistJob{st: st, dir: dir, world: e.persist.world, watch: watch, hasWatch: hasWatch})
	e.gc.writeMu.Unlock()
	if err != nil {
		return err
	}
	// Every live segment now has its own file: checkpoints cover them
	// with it from here on.
	e.persist.covers = nil
	e.persist.saves.Add(1)
	return nil
}

// writeStore writes the files of j's state that are not on disk yet,
// swaps the manifest, and then removes what the previous manifest
// referenced and this one does not. A segment is referenced through
// its job's cover when it has one (see persistState.covers), else
// through its own file; a save's job carries no covers, so it writes
// every live segment whole. The manifest is built from its job alone:
// the state (with the remote statistics it was scored under), and
// world and watch, captured at commit time — the writer must not read
// them from the engine, whose commit-side fields may have moved on.
// gc.writeMu must be held.
func (e *Engine) writeStore(j *persistJob) (err error) {
	dir, st := j.dir, j.st
	defer func() {
		if err != nil {
			// The attempt may have placed files no manifest names, and
			// not synced their renames: the next successful write syncs
			// the directory and sweeps it.
			e.persist.lastDir = ""
		}
	}()
	if err := ensureDir(dir); err != nil {
		return err
	}
	segs := st.snap.Segments
	if e.persist.files == nil {
		e.persist.files = make(map[*snapshot.Segment]segio.SegmentRef)
	}
	type pendingFile struct {
		name    string
		data    []byte
		segment bool // a segment file (else its conn companion)
	}
	var pend []pendingFile
	// place returns the ref of seg's own file, queueing the file and its
	// conn companion for writing unless they are on disk.
	place := func(seg *snapshot.Segment) segio.SegmentRef {
		ref, ok := e.persist.files[seg]
		var data []byte
		if !ok {
			data = segio.EncodeSegment(seg)
			ref = segio.SegmentRef{
				Base:    seg.Base,
				Docs:    seg.Len(),
				CRC:     crc32.ChecksumIEEE(data),
				MinTime: seg.MinTime,
				MaxTime: seg.MaxTime,
			}
			ref.File = segio.SegmentFileName(ref.Base, ref.Docs, ref.CRC)
		}
		if e.knownFile(dir, ref.File) {
			e.persist.segmentsReused.Add(1)
		} else {
			if data == nil {
				// Known segment but absent file (first save into a new
				// dir, or external deletion): re-encode. The encoding is
				// canonical, so the bytes match the cached name and CRC.
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
		e.persist.files[seg] = ref
		return ref
	}
	refs := make([]segio.SegmentRef, 0, len(segs))
	var resolved []*coverLeaf // leaves this write covers first
	for i, seg := range segs {
		if j.covers == nil || j.covers[i] == nil {
			refs = append(refs, place(seg))
			continue
		}
		// A merged segment covered by its parents' files: the manifest's
		// layout lags the in-memory segmentation, but the documents and
		// generation it describes are identical, and no O(corpus)
		// re-encode rides the writer. A leaf whose own job was coalesced
		// away is encoded here, so the files do not depend on it.
		for _, l := range j.covers[i] {
			if l.seg != nil {
				l.ref = place(l.seg)
				resolved = append(resolved, l)
			} else {
				e.persist.segmentsReused.Add(1)
			}
			refs = append(refs, l.ref)
		}
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
	}
	// One SyncDir before the manifest whenever it may name a rename this
	// process has not synced: a file placed now, or, on the first write
	// into dir or the first after a failed attempt, a file found there.
	needSync := len(pend) > 0 || e.persist.lastDir != dir
	// Prune the cache to live segments so merge churn cannot grow it
	// without bound.
	for seg := range e.persist.files {
		if !slices.Contains(segs, seg) {
			delete(e.persist.files, seg)
		}
	}

	m := &segio.Manifest{
		Generation: st.snap.Generation,
		NumDocs:    st.snap.NumDocs(),
		Segments:   refs,
		Engine:     e.engineMeta(),
		World:      j.world,
		Stats:      statsMeta(e.stats),
	}
	// A shard persists its cluster position and the remote entity
	// statistics its global scores were computed under, so a warm reopen
	// (or a replica opening shipped segments) reproduces bit-identical
	// answers without talking to any peer first. They come from the
	// state, not the engine: a later SetRemoteStats may already have
	// replaced the engine's, and pairing them with this state's
	// generation would misstate its local generation.
	if rs := st.remote; rs != nil {
		m.Shard = &segio.ShardMeta{
			Index:         e.shardIndex,
			Count:         e.shardCount,
			RemoteDocs:    rs.Docs,
			RemoteDF:      rs.DF,
			RemoteBatches: rs.Batches,
		}
	}
	// Standing-query state participates in the same atomic manifest
	// swap: the content-named file is written first and the manifest
	// points at it. Unlike segments the state is mutable, but each
	// version is written under its content hash, so an unchanged registry
	// rewrites nothing and a crash mid-save leaves the previous
	// manifest's file intact. The bytes were rendered at commit time
	// (see persistJob.watch), so the manifest pairs each batch with
	// exactly the alerts it fired.
	if j.hasWatch && len(j.watch) > 0 {
		name := segio.WatchFileName(j.watch)
		if !e.knownFile(dir, name) {
			if err := writeSegioFile(dir, name, j.watch); err != nil {
				return fmt.Errorf("core: writing watch state: %w", err)
			}
			needSync = true
			e.markFile(dir, name)
			e.persist.bytesWritten.Add(int64(len(j.watch)))
		}
		m.WatchFile = name
	}
	if needSync {
		// One directory fsync covers every artifact rename; the manifest
		// below must not point at names that could vanish.
		if err := syncSegioDir(dir); err != nil {
			return fmt.Errorf("core: syncing store directory: %w", err)
		}
	}
	if err := writeSegioManifest(dir, m); err != nil {
		return fmt.Errorf("core: writing manifest: %w", err)
	}
	for _, l := range resolved {
		l.seg = nil
	}
	// Covers only ever drop leaves (a merge past the bound, a save), so
	// no later manifest names a resolved leaf removed here; any other
	// file named again is re-placed, as removal forgets it.
	names := m.Files()
	if e.persist.lastDir == dir {
		for _, name := range e.persist.lastFiles {
			if !slices.Contains(names, name) {
				// A file that will not go stays as garbage; the manifest
				// no longer names it.
				_ = os.Remove(filepath.Join(dir, name))
				e.forgetFile(dir, name)
			}
		}
	} else {
		for _, name := range segio.CollectGarbage(dir, m) {
			e.forgetFile(dir, name)
		}
	}
	e.persist.lastDir, e.persist.lastFiles = dir, names
	return nil
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
// restart between ingests does not forget them. It enqueues the job
// with the group-commit writer like an ingest does and waits for it
// without holding the ingest lock, so batches keep committing while
// the write drains. A no-op without a checkpoint directory or before
// IndexCorpus; failures are counted in CheckpointErrors exactly like
// per-ingest checkpoint failures.
func (e *Engine) Checkpoint() {
	var seq uint64
	e.ingestMu.Lock()
	if st := e.state(); st != nil {
		seq = e.enqueueCheckpointLocked(st)
	}
	e.ingestMu.Unlock()
	e.WaitPersisted(seq)
}

// Store is a snapshot directory decoded without a graph: segments in
// manifest order, one key-sorted conn run per segment, the watch file.
// Reading stops at the first bad file; its error waits for OpenStore
// beside the segments decoded before it.
type Store struct {
	m     *segio.Manifest
	segs  []*snapshot.Segment
	known [][]connPair
	// Watch holds the manifest's standing-query state file (decode with
	// the watch package's codec); nil when the manifest names none.
	Watch []byte
	bytes int64         // file bytes read, counted on install
	files time.Duration // ReadStore's wall time
	err   error         // the first bad file, in read order
}

// ReadStore reads the store m describes (nil: dir's manifest): every
// segment, CRC-checked, in manifest order, then every conn companion,
// then the watch file. A companion's name pins its FNV-1a, DecodeConn
// checks its CRC and canonical form (keys ascend), and each key's
// document must lie in its own segment's range; the manifest keeps
// segments disjoint, so no key repeats across companions. A segment
// without one (a store older than companions) gets a nil run.
func ReadStore(dir string, m *segio.Manifest) *Store {
	start := time.Now()
	s := &Store{m: m}
	s.err = s.read(dir)
	s.files = time.Since(start)
	return s
}

func (s *Store) read(dir string) error {
	if s.m == nil {
		m, err := segio.ReadManifest(dir)
		if err != nil {
			return err
		}
		s.m = m
	}
	refs := s.m.Segments
	s.segs = make([]*snapshot.Segment, 0, len(refs))
	for _, ref := range refs {
		seg, n, err := segio.ReadSegmentFile(dir, ref)
		if err != nil {
			return err
		}
		s.bytes += int64(n)
		s.segs = append(s.segs, seg)
	}
	s.known = make([][]connPair, len(refs))
	for i, ref := range refs {
		if ref.Conn == "" {
			continue
		}
		data, err := segio.ReadConnFile(dir, ref.Conn)
		if err != nil {
			return err
		}
		s.bytes += int64(len(data))
		run := make([]connPair, 0, len(data)/16) // 16 bytes per entry
		lo, hi := uint32(ref.Base), uint32(ref.Base)+uint32(ref.Docs)
		var stray uint64
		var outside bool
		if err := segio.DecodeConn(data, func(k uint64, v float64) {
			if d := uint32(k); d < lo || d >= hi {
				stray, outside = k, true
			}
			run = append(run, connPair{key: k, val: v})
		}); err != nil {
			return fmt.Errorf("conn-memo file %s: %w", ref.Conn, err)
		}
		if outside {
			return fmt.Errorf("%w: conn-memo file %s: key %#x lies outside its segment's documents [%d, %d)",
				segio.ErrCorrupt, ref.Conn, stray, lo, hi)
		}
		s.known[i] = run
	}
	if s.m.WatchFile != "" {
		data, err := segio.ReadWatchFile(dir, s.m.WatchFile)
		if err != nil {
			return err
		}
		s.Watch = data
	}
	return nil
}

// OpenStore installs a store ReadStore decoded into a freshly
// constructed engine, doing under ingestMu everything that needs the
// graph. Errors come in the order a serial open meets them: an indexed
// engine, mismatched options, a decoded segment's out-of-graph node,
// invalid remote statistics in the shard meta, then the store's own
// read error. The rescore is the one every ingest
// performs, with the companions' values handed to the plan build, so a
// store whose segments all carry one walks nothing. world (0 when the
// engine was built beforehand) and began feed the LastOpen clocks. A
// failed open installs nothing, and the engine may open again.
func (e *Engine) OpenStore(s *Store, world time.Duration, began time.Time) error {
	start := time.Now()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.st.Load() != nil {
		return errOpenAfterIndex
	}
	m := s.m
	if m == nil {
		return s.err // no manifest
	}
	if got, want := e.engineMeta(), m.Engine; !compatibleEngineMeta(got, want) {
		return fmt.Errorf("core: engine options %+v do not match saved snapshot %+v", got, want)
	}
	for i, seg := range s.segs {
		if err := validateSegmentNodes(seg, e.g.NumNodes()); err != nil {
			return fmt.Errorf("segment file %s: %w", m.Segments[i].File, err)
		}
	}
	var remote *ShardStats
	if m.Shard != nil {
		remote = &ShardStats{Docs: m.Shard.RemoteDocs, DF: m.Shard.RemoteDF, Batches: m.Shard.RemoteBatches}
		if err := remote.validate(e.g.NumNodes()); err != nil {
			return fmt.Errorf("%w: manifest shard section: %v", segio.ErrCorrupt, err)
		}
		// The seed build is a local generation, so the remote batches
		// never reach the generation.
		if m.Generation <= remote.Batches {
			return fmt.Errorf("%w: manifest generation %d within its %d remote batches", segio.ErrCorrupt, m.Generation, remote.Batches)
		}
	}
	if s.err != nil {
		return s.err
	}
	// Remember the loaded segments' file identities so a later save
	// into the same directory rewrites nothing. (writeMu: these are
	// writer-side fields; no writer can be running before the first
	// index, but the lock keeps the invariant uniform.)
	e.gc.writeMu.Lock()
	e.persist.files = make(map[*snapshot.Segment]segio.SegmentRef, len(s.segs))
	for i, seg := range s.segs {
		e.persist.files[seg] = m.Segments[i]
	}
	e.gc.writeMu.Unlock()

	e.persist.bytesRead.Add(s.bytes)
	e.stats = statsFromMeta(m.Stats)
	if remote != nil {
		e.shardIndex, e.shardCount = m.Shard.Index, m.Shard.Count
		e.remote.Store(remote)
		e.localGen.Store(m.Generation - m.Shard.RemoteBatches)
	} else {
		e.localGen.Store(m.Generation)
	}
	st, _ := e.buildState(m.Generation, s.segs, nil, s.known)
	e.st.Store(st)
	e.epoch.Add(1)
	e.persist.opens.Add(1)
	e.persist.lastOpen.Store(&OpenClocks{
		WorldMS: millis(world),
		FilesMS: millis(s.files),
		BuildMS: millis(time.Since(start)),
		WallMS:  millis(time.Since(began)),
	})
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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
	// The decoder guarantees EntityFreq's keys are the Entities, and
	// derives the postings from them, so checking Entities covers both.
	for i := range seg.Docs {
		d := &seg.Docs[i]
		for _, v := range d.Entities {
			if int(v) >= numNodes {
				return bad("entity", v)
			}
		}
		for _, c := range d.Candidates {
			if int(c) >= numNodes {
				return bad("candidate", c)
			}
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
// until the writer removes it itself (forgetFile). markFile
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
