package core

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/relevance"
	"ncexplorer/internal/snapshot"
)

// Live corpus ingestion, as a three-stage pipeline:
//
//	analyze (lock-free) → commit (ingestMu, short) → persist (overlapped)
//
// Stage 1 runs the whole per-document analysis — NLP annotation,
// entity linking, candidate enumeration, and the speculative walks of
// the batch's connectivity factors — before ingestMu is taken, so
// concurrent Ingest calls analyze simultaneously and only serialise
// for the short commit section. Stage 2 assigns the batch its real base ID
// (rebasing the analyzed segment if another batch won the race),
// replays the plans for the new segment only, and atomically swaps the
// snapshot. Stage 3 is the group-commit checkpoint writer
// (groupcommit.go): the commit enqueues its durability work and
// returns a persist sequence; batch N+1 analyzes and commits while
// batch N's checkpoint drains, and callers that must report durable
// state wait on the sequence (WaitPersisted) off the commit path.
//
// Equivalence guarantee: an engine grown by any sequence of Ingest
// calls answers every query byte-identically to an engine that
// indexed the same documents in one IndexCorpus build. Three design
// choices carry the proof:
//
//  1. corpus-global term statistics — the snapshot's merged text view
//     sums document frequencies across segments, so tw(v, d) equals
//     the monolithic build's value exactly;
//  2. generation-derived scores — everything downstream of tw (the
//     ontology factor, candidate ranking, pivots) is recomputed for
//     every document when a snapshot is built, never carried over;
//  3. content-addressed sampling — the connectivity factor's sampler
//     is seeded by (concept, doc) alone, so the values the plans store
//     are the ones a from-scratch build would draw. The speculative
//     pre-warm honors this: values computed against a guessed base are
//     handed to the plan replay only when the guess survived the
//     commit race — otherwise they are dropped wholesale, because
//     their keys (and therefore their sampler streams) belong to
//     document IDs the batch did not get.

// errNotIndexed is returned by Ingest before IndexCorpus has run.
var errNotIndexed = errors.New("core: Ingest called before IndexCorpus")

// IngestResult reports one ingested batch.
type IngestResult struct {
	// Docs is the number of documents added by this batch.
	Docs int
	// Generation is the snapshot generation now serving.
	Generation uint64
	// TotalDocs is the corpus size after the batch.
	TotalDocs int
	// LinkNanos / ScoreNanos time annotation+linking of the new
	// documents and building the new generation's plans under the
	// writer lock. Neither times the batch's connectivity walks:
	// prewarmConn runs them between the two, before the lock. Only a
	// batch that lost the base race walks inside ScoreNanos.
	LinkNanos  int64
	ScoreNanos int64
	// PersistSeq is the batch's group-commit persist sequence: pass it
	// to WaitPersisted to block until the checkpoint covering this
	// commit has been attempted (the durability barrier a serving layer
	// runs before acknowledging the batch). Zero for an empty batch.
	PersistSeq uint64
}

// ingestCounters aggregates ingestion throughput for /statsz.
type ingestCounters struct {
	batches atomic.Int64
	docs    atomic.Int64
	nanos   atomic.Int64
	merges  atomic.Int64
	// connWalks counts cdrc estimates (see IngestCounters.ConnWalks);
	// each build or pre-warm adds its per-worker totals once.
	connWalks atomic.Int64
	// defaultedTime counts documents whose PublishedAt was missing and
	// was defaulted to the ingest wall clock.
	defaultedTime atomic.Int64
}

// IngestCounters is the exported snapshot of ingestion counters.
type IngestCounters struct {
	// Batches and Docs count successful Ingest calls and the documents
	// they added.
	Batches int64 `json:"batches"`
	Docs    int64 `json:"docs"`
	// Nanos is the summed wall-clock cost of those calls (link + score
	// + swap).
	Nanos int64 `json:"nanos"`
	// Merges counts background segment merges.
	Merges int64 `json:"merges"`
	// ConnWalks counts the connectivity-factor estimates this process
	// ran: index builds, ingest pre-warms and plan-build misses. An
	// open whose segments all carry conn companions walks none.
	ConnWalks int64 `json:"conn_walks"`
	// DocsDefaultedTime counts documents that arrived without a
	// publication time and had it defaulted to the ingest wall clock.
	DocsDefaultedTime int64 `json:"docs_defaulted_time"`
}

// IngestCounters returns the engine's ingestion counters.
func (e *Engine) IngestCounters() IngestCounters {
	return IngestCounters{
		Batches:           e.ing.batches.Load(),
		Docs:              e.ing.docs.Load(),
		Nanos:             e.ing.nanos.Load(),
		Merges:            e.ing.merges.Load(),
		ConnWalks:         e.ing.connWalks.Load(),
		DocsDefaultedTime: e.ing.defaultedTime.Load(),
	}
}

// SegmentSizes lists the current snapshot's per-segment document
// counts, in base order.
func (e *Engine) SegmentSizes() []int {
	st := e.state()
	if st == nil {
		return nil
	}
	out := make([]int, len(st.snap.Segments))
	for i, seg := range st.snap.Segments {
		out[i] = seg.Len()
	}
	return out
}

// nextBase returns the next free GLOBAL document ID: local documents
// plus the documents other shards hold (zero for a monolithic engine).
func (e *Engine) nextBase(cur *genState) int32 {
	remoteDocs := 0
	if rs := e.remote.Load(); rs != nil {
		remoteDocs = rs.Docs
	}
	return int32(cur.snap.NumDocs() + remoteDocs)
}

// Ingest indexes a batch of articles into a new segment and publishes
// the next snapshot generation. Queries running concurrently are
// unaffected: each pinned the snapshot it started with, and the swap
// is a single atomic store. Document IDs are assigned densely after
// the existing corpus; the input slice is copied, never retained.
//
// The expensive analysis runs BEFORE the writer lock (see the pipeline
// comment above), so concurrent Ingest calls overlap their annotation,
// linking, and connectivity pre-warm and only serialise for the short
// commit section. The returned result describes the committed,
// in-memory state; its checkpoint drains through the group-commit
// writer — wait on PersistSeq for durability.
//
// ctx cancellation aborts the batch before the swap — either the
// whole batch becomes visible (at one new generation) or none of it.
// Concurrent Ingest calls serialise; order between racing batches is
// unspecified but each lands as its own generation.
func (e *Engine) Ingest(ctx context.Context, articles []corpus.Document) (IngestResult, error) {
	// Stage 1 — analyze, lock-free. The base is speculative: it is
	// re-read under the lock, and the segment rebased if another batch
	// committed in between (the rebase touches only the base-dependent
	// products — cheap next to re-analysis).
	cur := e.state()
	if cur == nil {
		return IngestResult{}, errNotIndexed
	}
	if len(articles) == 0 {
		return IngestResult{Generation: cur.snap.Generation, TotalDocs: cur.snap.NumDocs()}, nil
	}
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	start := time.Now()
	arts := append([]corpus.Document(nil), articles...)
	specBase := e.nextBase(cur)
	seg, _, linkNanos, err := e.buildSegment(ctx, arts, specBase)
	if err != nil {
		return IngestResult{}, err
	}
	warm := e.prewarmConn(ctx, seg)

	// Stage 2 — commit, under ingestMu: base assignment, plan replay
	// for the new segment only, atomic swap, checkpoint enqueue.
	e.ingestMu.Lock()
	if err := ctx.Err(); err != nil {
		e.ingestMu.Unlock()
		return IngestResult{}, err
	}
	cur = e.state()
	if base := e.nextBase(cur); base != seg.Base {
		// Lost the base race: re-address the segment. The speculative
		// conn values are dropped — their keys (and sampler streams)
		// embed global IDs this batch did not get; buildState walks the
		// batch's pairs under the real IDs.
		seg = snapshot.Rebase(seg, base)
		warm = nil
	}
	remoteBatches := uint64(0)
	if rs := e.remote.Load(); rs != nil {
		remoteBatches = rs.Batches
	}
	segs := make([]*snapshot.Segment, 0, len(cur.snap.Segments)+1)
	segs = append(segs, cur.snap.Segments...)
	segs = append(segs, seg)
	localGen := e.localGen.Load() + 1
	st, scoreNanos := e.buildState(localGen+remoteBatches, segs, cur, [][]connPair{warm})
	e.localGen.Store(localGen)
	e.st.Store(st)
	e.epoch.Add(1)
	e.ing.batches.Add(1)
	e.ing.docs.Add(int64(len(arts)))
	e.ing.nanos.Add(time.Since(start).Nanoseconds())
	// Standing queries evaluate the committed delta before the
	// checkpoint job is captured, so the enqueued checkpoint persists
	// the alerts this batch fired along with the batch itself — a
	// restart never replays a batch without its alerts or vice versa.
	if e.ingestHook != nil {
		e.ingestHook(&DeltaView{st: st, base: seg.Base, n: len(arts)})
	}
	// Stage 3 — persist, overlapped: enqueue the checkpoint (the only
	// segment the writer encodes is the new one; earlier segments are
	// already on disk under their content-addressed names) and let the
	// group-commit writer drain it while the next batch analyzes and
	// commits. Crash ordering is unchanged: segments first, manifest
	// last, jobs in commit order.
	seq := e.enqueueCheckpointLocked(st)
	e.maybeMerge(len(segs))
	e.ingestMu.Unlock()
	return IngestResult{
		Docs:       len(arts),
		Generation: st.snap.Generation,
		TotalDocs:  st.snap.NumDocs(),
		LinkNanos:  linkNanos,
		ScoreNanos: scoreNanos,
		PersistSeq: seq,
	}, nil
}

// connPair is one known context-factor value handed to a plan build —
// walked by the ingest pre-warm or decoded from a conn companion —
// keyed by the GLOBAL (concept, doc) key its sampler was seeded with.
type connPair struct {
	key uint64
	val float64
}

// pendingDocView adapts a not-yet-committed segment to
// relevance.DocView for conn pre-warming. Only the document-local
// inputs of the context factor are real: EntityWeight is corpus-global
// and unused by ContextRel, so it reports 0 and must never be
// consulted on this path.
type pendingDocView struct{ seg *snapshot.Segment }

func (v pendingDocView) Entities(doc int32) []kg.NodeID {
	return v.seg.Docs[doc-v.seg.Base].Entities
}

func (v pendingDocView) EntityWeight(kg.NodeID, int32) float64 { return 0 }

func (v pendingDocView) ContextWeight(ent kg.NodeID, doc int32) float64 {
	tf := v.seg.Docs[doc-v.seg.Base].EntityFreq[ent]
	if tf <= 0 {
		return 0
	}
	return float64(tf) / float64(tf+1)
}

// prewarmConn walks, outside the writer lock, exactly the (concept,
// document) pairs the commit-time plan replay would otherwise walk for
// this segment: matching pairs (a document entity in the concept's
// capped extent) of concepts with positive specificity — no more (no
// walk is wasted) and no less (so the commit section walks nothing).
// The values return as one key-sorted run for buildState: the keys
// embed the segment's speculative base, and the caller hands them on
// only if that base survives the commit race. The sort also runs here,
// before the lock. A cancelled ctx returns the pairs warmed so far
// (pre-warming is an optimisation, never a correctness step: the plan
// build walks any pair the run lacks).
func (e *Engine) prewarmConn(ctx context.Context, seg *snapshot.Segment) []connPair {
	concepts, _ := e.matchableConcepts([]*snapshot.Segment{seg})
	view := pendingDocView{seg: seg}
	workers := e.opts.Workers
	scorers := make([]*relevance.Scorer, workers)
	bufs := make([][]connPair, workers)
	stamps := make([][]uint32, workers)
	gens := make([]uint32, workers)
	for w := range scorers {
		scorers[w] = relevance.NewScorer(e.g, view, e.reachIx, e.scorerOpts())
		defer scorers[w].Release()
		stamps[w] = make([]uint32, seg.Len())
	}
	e.parallelWorker(len(concepts), func(worker, i int) {
		if ctx.Err() != nil {
			return
		}
		c := concepts[i]
		if e.g.Specificity(c) <= 0 {
			return
		}
		s := scorers[worker]
		gens[worker]++
		gen := gens[worker]
		stamp := stamps[worker]
		for _, v := range e.extent(c) {
			for _, d := range seg.EntDocs[v] {
				if local := d - seg.Base; stamp[local] == gen {
					continue
				} else {
					stamp[local] = gen
				}
				bufs[worker] = append(bufs[worker], connPair{key: cdrKey(c, d), val: e.walkConn(s, c, d)})
			}
		}
	})
	var out []connPair
	for _, buf := range bufs {
		out = append(out, buf...)
	}
	e.ing.connWalks.Add(int64(len(out)))
	slices.SortFunc(out, func(a, b connPair) int { return cmp.Compare(a.key, b.key) })
	return out
}

// maybeMerge kicks the background merge goroutine when the segment
// count exceeds the policy bound. Called with ingestMu held; at most
// one merge goroutine runs at a time.
func (e *Engine) maybeMerge(segments int) {
	if segments <= e.opts.MaxSegments {
		return
	}
	if !e.merging.CompareAndSwap(false, true) {
		return
	}
	e.mergeWG.Add(1)
	go func() {
		defer e.mergeWG.Done()
		defer e.merging.Store(false)
		e.mergeSegments()
	}()
}

// mergeSegments folds the smallest adjacent segment pairs together
// until the count respects MaxSegments, then swaps in a state that
// keeps the SAME generation and transplants the plans and derived
// scores: a merge reorganises storage without changing any statistic,
// so every derived value — plans, ceilings and external response
// caches alike — stays valid and warm.
func (e *Engine) mergeSegments() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	cur := e.state()
	if cur == nil || len(cur.snap.Segments) <= e.opts.MaxSegments {
		return
	}
	segs := append([]*snapshot.Segment(nil), cur.snap.Segments...)
	mergedAny := false
	for len(segs) > e.opts.MaxSegments {
		// Only ID-contiguous neighbours may fold: a merged segment covers
		// one contiguous global range, and a shard's segment list can have
		// gaps where other shards' batches landed. When no adjacent pair
		// is contiguous the shard keeps its segment count — correctness
		// never depends on merging.
		best := -1
		bestSize := -1
		for i := 0; i+1 < len(segs); i++ {
			if segs[i].Base+int32(segs[i].Len()) != segs[i+1].Base {
				continue
			}
			size := segs[i].Len() + segs[i+1].Len()
			if bestSize < 0 || size < bestSize {
				best, bestSize = i, size
			}
		}
		if best < 0 {
			break
		}
		merged := snapshot.Merge(segs[best : best+2])
		// Record the fold for delta checkpoints: the writer substitutes
		// the two parents' durable files for the merged segment rather
		// than re-encoding O(corpus) bytes on every merge.
		if e.persist.checkpointDir != "" {
			e.gc.addLineage(merged, segs[best], segs[best+1])
		}
		segs = append(segs[:best+1], segs[best+2:]...)
		segs[best] = merged
		e.ing.merges.Add(1)
		mergedAny = true
	}
	if !mergedAny {
		return
	}
	st := e.newStateShell(e.buildSnapshot(cur.snap.Generation, segs), cur)
	st.concepts = cur.concepts
	// Plans stay valid verbatim: merges keep document IDs, corpus-global
	// statistics, and (global-ID-aligned) block identities unchanged.
	// That covers the ceiling state too — merged block-max tables fold
	// to the same per-block maxima — so warm ceilings carry over.
	st.plans = cur.plans
	st.planned = cur.planned
	st.entIDFN = cur.entIDFN
	st.ceil = cur.ceil
	e.st.Store(st)
	// No epoch bump: answers are unchanged, external caches stay warm.
	// The checkpoint keeps the data directory aligned with the merged
	// layout (and garbage-collects the folded segment files).
	e.enqueueCheckpointLocked(st)
}

// WaitMerges blocks until any in-flight background merge completes AND
// every checkpoint enqueued so far has drained through the group-commit
// writer — after it returns, the checkpoint directory reflects the
// merged layout. Tests and graceful shutdown use it; queries never
// need to.
func (e *Engine) WaitMerges() {
	e.mergeWG.Wait()
	e.drainPersist()
}
