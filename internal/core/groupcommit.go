package core

import (
	"sync"
	"time"
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
// Coalescing decides only WHICH committed states reach the disk, never
// what a state's files are: each job carries its state's covers (see
// coverLeaf in persist.go), fixed at commit time from the merge lineage
// alone, and the writer writes exactly those files, encoding a leaf
// whose own job was skipped. The directory after any write is a
// function of the state written, whatever the writer's timing.
//
// Crash ordering: writeStore writes segment files first and swaps the
// manifest last, and jobs reach the disk in commit (sequence) order — a
// stale job that lost a coalescing race or arrived after a newer write
// is skipped, never written over a newer manifest (the `written`
// watermark under writeMu enforces this).
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
	// covers holds, per segment of st (nil for a save, or when no
	// segment has one), the leaves covering a merged segment instead of
	// its own file; nil entries are covered by their own file.
	covers [][]*coverLeaf
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

	// writeMu serialises every disk write (checkpoints, saves, opens)
	// and guards the writer-side persist fields (files, verified,
	// lastDir, lastFiles, the coverLeaf fields) and the written
	// watermark below.
	writeMu sync.Mutex
	written uint64 // highest sequence actually written (under writeMu)
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
	if len(e.persist.covers) > 0 {
		job.covers = make([][]*coverLeaf, len(st.snap.Segments))
		for i, seg := range st.snap.Segments {
			job.covers[i] = e.persist.covers[seg]
		}
	}
	return job, seq
}

// enqueueCheckpointLocked hands the committed state to the group-commit
// writer and returns the sequence to wait on for durability. ingestMu
// held.
func (e *Engine) enqueueCheckpointLocked(st *genState) uint64 {
	job, seq := e.persistJobLocked(st)
	if job == nil {
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
		if err := e.writeStore(j); err != nil {
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
