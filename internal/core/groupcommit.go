package core

import (
	"sync"
	"time"

	"ncexplorer/internal/snapshot"
)

// Group-commit checkpoint writer. A committed batch's durability work —
// encoding the new segment, fsyncing it, swapping the manifest — used
// to run inside the commit section, so every ingest paid the disk round
// trip under ingestMu and the next batch could not even start
// committing until the previous one was on disk. The writer moves that
// work off the commit path:
//
//   - commits (ingest, merge, remote-stat refresh, Checkpoint) capture a
//     persistJob under ingestMu — the committed state, which carries the
//     remote statistics it was scored under, plus everything else the
//     writer may not read later (directory, world meta, the rendered
//     standing-query state, so a batch persists atomically with the
//     alerts it fired) — and enqueue it. Callers whose contract is
//     "durable when I return" release ingestMu, then wait on the job's
//     sequence;
//   - a single writer goroutine drains the queue. The queue holds at
//     most ONE job: a newer commit replaces a not-yet-started older
//     one, because the newer state strictly contains it — consecutive
//     commits coalesce into one segment-encode + manifest swap;
//   - completion is a monotone sequence watermark (done). Waiting for a
//     batch's durability is waiting for done to reach the sequence its
//     commit was assigned; a coalesced job's sequence is covered by the
//     newer write that subsumed it.
//
// Crash ordering is unchanged from the synchronous path: writeStore
// still writes segment files first and swaps the manifest last, and
// jobs reach the disk in commit (sequence) order — a stale job that
// lost a coalescing race or arrived after a newer synchronous write is
// skipped, never written over a newer manifest (the `written` watermark
// under writeMu enforces this).
//
// Lock order: ingestMu → gc.mu, and writeMu → gc.mu. The writer takes
// writeMu and gc.mu but never ingestMu, so commit-holders may block on
// the writer (SaveSnapshot drains the queue) without deadlock.

// persistJob is one enqueued checkpoint: the committed state to encode
// plus every input captured at commit time under ingestMu.
type persistJob struct {
	seq   uint64
	st    *genState
	dir   string
	world map[string]string
	// watch is the standing-query state rendered AT COMMIT TIME (nil
	// slice with hasWatch set means "encoder present, nothing to
	// persist"): the batch and the alerts it fired land in the same
	// manifest swap even though the write happens later.
	watch    []byte
	hasWatch bool
}

// groupCommit is the writer's shared state, embedded in Engine.
type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled on every completion; waiters watch done
	pending *persistJob
	running bool   // writer goroutine alive
	seq     uint64 // last sequence assigned to a commit (under mu)
	done    uint64 // highest sequence whose checkpoint attempt completed

	// waiters counts goroutines currently blocked in WaitPersisted /
	// drainPersist; waiterCh carries a non-blocking wakeup hint when one
	// registers. The writer's batching window yields to them: batching
	// trades ack latency for fewer fsync cycles, a trade only worth
	// making while nobody is blocked on the ack.
	waiters  int
	waiterCh chan struct{}

	// lineage records (under mu) which segments a background merge
	// folded into each merged segment that has not yet reached a
	// checkpoint. The writer substitutes the parents' already-durable
	// files for the merged segment (a delta checkpoint) instead of
	// re-encoding O(corpus) bytes after every merge; entries are purged
	// as soon as the writer has either resolved the merged segment to
	// delta refs or written it a real file. Only populated while a
	// checkpoint directory is configured, so disabled engines never pin
	// folded segments.
	lineage map[*snapshot.Segment][]*snapshot.Segment

	// writeMu serialises every disk write (checkpoints, saves, opens)
	// and guards the writer-side persist fields (segRefs, verified,
	// lastWatchFile) and the written watermark below.
	writeMu sync.Mutex
	written uint64 // highest sequence actually written (under writeMu)
}

// addLineage records a merge fold for delta checkpoints. Callers hold
// ingestMu (commit side); the map itself is guarded by mu.
func (gc *groupCommit) addLineage(merged *snapshot.Segment, parents ...*snapshot.Segment) {
	gc.mu.Lock()
	if gc.lineage == nil {
		gc.lineage = make(map[*snapshot.Segment][]*snapshot.Segment)
	}
	gc.lineage[merged] = parents
	gc.mu.Unlock()
}

// parentsOf returns the recorded merge parents of seg, or nil.
func (gc *groupCommit) parentsOf(seg *snapshot.Segment) []*snapshot.Segment {
	gc.mu.Lock()
	parents := gc.lineage[seg]
	gc.mu.Unlock()
	return parents
}

// purgeLineage drops the lineage chain rooted at seg — called once a
// checkpoint has either cached seg's delta refs or written seg its own
// file: no future write needs the chain, and keeping it would pin the
// folded segments' memory. Chains are trees (a segment is folded into
// exactly one merged segment), so the recursion never revisits a node.
func (gc *groupCommit) purgeLineage(seg *snapshot.Segment) {
	gc.mu.Lock()
	gc.purgeLineageLocked(seg)
	gc.mu.Unlock()
}

func (gc *groupCommit) purgeLineageLocked(seg *snapshot.Segment) {
	parents, ok := gc.lineage[seg]
	if !ok {
		return
	}
	delete(gc.lineage, seg)
	for _, p := range parents {
		gc.purgeLineageLocked(p)
	}
}

// clearLineage drops every recorded fold — checkpointing was disabled.
func (gc *groupCommit) clearLineage() {
	gc.mu.Lock()
	gc.lineage = nil
	gc.mu.Unlock()
}

// complete marks a checkpoint attempt for seq as finished and wakes
// waiters. done only advances (max-guard): an older job finishing after
// a newer coalesced write must not regress the watermark.
func (gc *groupCommit) complete(seq uint64) {
	gc.mu.Lock()
	if seq > gc.done {
		gc.done = seq
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
}

// persistJobLocked assigns the next sequence and captures the job for
// the given committed state. Returns a nil job (sequence already
// completed) when no checkpoint directory is configured. ingestMu held.
func (e *Engine) persistJobLocked(st *genState) (*persistJob, uint64) {
	gc := &e.gc
	gc.mu.Lock()
	gc.seq++
	seq := gc.seq
	gc.mu.Unlock()
	dir := e.persist.checkpointDir
	if dir == "" {
		gc.complete(seq)
		return nil, seq
	}
	job := &persistJob{seq: seq, st: st, dir: dir, world: e.persist.world}
	if e.persist.watchEnc != nil {
		job.watch = e.persist.watchEnc()
		job.hasWatch = true
	}
	return job, seq
}

// enqueueCheckpointLocked hands the committed state to the group-commit
// writer and returns the sequence to wait on for durability. With
// SetSyncPersist(true) the write happens before returning instead (the
// pre-pipeline behavior). ingestMu held.
func (e *Engine) enqueueCheckpointLocked(st *genState) uint64 {
	job, seq := e.persistJobLocked(st)
	if job == nil {
		return seq
	}
	if e.syncPersist.Load() {
		e.writeCheckpoint(job)
		return seq
	}
	gc := &e.gc
	gc.mu.Lock()
	gc.pending = job // replaces any older not-yet-started job: coalesced
	if !gc.running {
		gc.running = true
		go e.persistLoop()
	}
	gc.mu.Unlock()
	return seq
}

// persistWindow is the group-commit batching window: before each
// checkpoint write the persist goroutine holds the queue open this long
// and adopts the newest pending job, so commits arriving within a
// window share one fsync cycle. The window only opens while NO
// goroutine is blocked on durability and closes the moment one
// registers (see persistLoop), so commit latency and durable-ack
// latency are both unaffected — batching happens exactly when nobody
// is waiting for the ack.
const persistWindow = 5 * time.Millisecond

// persistLoop drains the one-slot queue until it is empty, then exits;
// the next enqueue restarts it. Before each write it may hold the
// group-commit window open and adopt the newest pending job, so
// commits arriving within a window share one fsync cycle: writing the
// newer job advances the done watermark past every coalesced
// sequence, which is exactly what their waiters are blocked on. The
// window YIELDS to durability waiters — it opens only while no
// goroutine is blocked in WaitPersisted and closes the moment one
// registers — so batching never delays an ack someone is waiting for
// by more than the time it takes the hint to arrive.
func (e *Engine) persistLoop() {
	gc := &e.gc
	for {
		gc.mu.Lock()
		job := gc.pending
		gc.pending = nil
		if job == nil {
			gc.running = false
			gc.mu.Unlock()
			return
		}
		noWaiters := gc.waiters == 0
		// Drop a stale hint from a waiter that already unblocked, so it
		// cannot cut this window short.
		select {
		case <-gc.waiterCh:
		default:
		}
		gc.mu.Unlock()
		if noWaiters {
			t := time.NewTimer(persistWindow)
			select {
			case <-gc.waiterCh: // a waiter arrived: write now
				t.Stop()
			case <-t.C: // window expired
			}
			gc.mu.Lock()
			if gc.pending != nil && gc.pending.seq > job.seq {
				job = gc.pending
				gc.pending = nil
			}
			gc.mu.Unlock()
		}
		e.writeCheckpoint(job)
	}
}

// writeCheckpoint performs one checkpoint attempt. Failures never fail
// the commit that enqueued the job — the in-memory swap already
// happened — they are counted (CheckpointErrors) and the directory lags
// until a later attempt succeeds; the written watermark is not advanced
// on failure, so the next job retries the full write.
func (e *Engine) writeCheckpoint(j *persistJob) {
	gc := &e.gc
	gc.writeMu.Lock()
	if j.seq > gc.written {
		if err := e.writeStore(j.dir, j.st, false, j.world, j.watch, j.hasWatch); err != nil {
			e.persist.checkpointErrors.Add(1)
		} else {
			e.persist.checkpoints.Add(1)
			gc.written = j.seq
		}
	}
	gc.writeMu.Unlock()
	gc.complete(j.seq)
}

// WaitPersisted blocks until the checkpoint attempt covering persist
// sequence seq has completed — the durability barrier for one commit
// (IngestResult.PersistSeq). "Completed" means the manifest covering
// the commit is on disk, or the attempt failed and was counted, or no
// checkpoint directory was configured at commit time.
func (e *Engine) WaitPersisted(seq uint64) {
	e.gc.waitDone(seq)
}

// drainPersist waits for every checkpoint enqueued so far to complete.
func (e *Engine) drainPersist() {
	gc := &e.gc
	gc.mu.Lock()
	seq := gc.seq
	gc.mu.Unlock()
	gc.waitDone(seq)
}

// waitDone blocks until done reaches seq, registering as a durability
// waiter so an open batching window closes immediately (see
// persistLoop).
func (gc *groupCommit) waitDone(seq uint64) {
	gc.mu.Lock()
	if gc.done < seq {
		gc.waiters++
		select {
		case gc.waiterCh <- struct{}{}:
		default:
		}
		for gc.done < seq {
			gc.cond.Wait()
		}
		gc.waiters--
	}
	gc.mu.Unlock()
}

// SetSyncPersist toggles pipelined checkpointing off (true): every
// commit then blocks until its checkpoint attempt finished. Tests use
// it for a deterministic checkpoint schedule — one write per batch, in
// commit order, never coalesced.
func (e *Engine) SetSyncPersist(on bool) { e.syncPersist.Store(on) }
