package core

import "ncexplorer/internal/corpus"

// Standing-query support: the ingest-time evaluation hook.
//
// Every Ingest appends one immutable segment and swaps in the next
// snapshot generation. Immediately after the swap — still under the
// ingest lock, before the checkpoint persists the batch — the engine
// invokes the registered hook with a DeltaView scoped to the documents
// the batch added. The hook is where the watch subsystem evaluates its
// watchlists against just the delta.
//
// Why delta-only evaluation is exact (the correctness argument the
// watch subsystem relies on): Definition-1 matching is a property of
// the document alone — a document matches concept c iff it contains an
// entity in c's extent closure, and both the document's entity list
// and the graph are immutable. So the matched set of a query at
// generation N differs from generation N−1 by exactly the new
// segment's matching documents; no old document can enter or leave it.
// Scores are a different matter: rel(Q, d) reads corpus-global term
// statistics and drifts for every document as the corpus grows, which
// is why the hook scores delta documents at the generation they arrive
// and the watch layer defines its score filter over that value.
//
// Merges never invoke the hook: they keep the generation and change no
// content, so there is no delta to evaluate.

// DeltaView is the evaluation surface handed to the ingest hook: a
// window over the trailing delta of the just-published generation,
// with matching and scoring pinned to that generation's state. It is
// only valid during the hook call (or WithRecentView callback) that
// provided it; holding it longer would pin a dead generation.
type DeltaView struct {
	st   *genState
	base int32
	n    int
}

// Generation returns the snapshot generation the view is pinned to.
func (v *DeltaView) Generation() uint64 { return v.st.snap.Generation }

// NumDocs returns the total corpus size at this generation.
func (v *DeltaView) NumDocs() int { return v.st.snap.NumDocs() }

// DeltaBase returns the global ID of the first delta document.
func (v *DeltaView) DeltaBase() int32 { return v.base }

// DeltaDocs returns the number of documents in the delta.
func (v *DeltaView) DeltaDocs() int { return v.n }

// Source returns the source of a document.
func (v *DeltaView) Source(doc int32) corpus.Source {
	return v.st.snap.Doc(doc).Source
}

// Article returns the immutable display document of a global ID.
func (v *DeltaView) Article(doc int32) *corpus.Document {
	return v.st.snap.Article(doc)
}

// MatchedInDelta returns the delta documents matching every concept of
// q (Definition 1), ascending: the tails of the query concepts' plans
// from the view's base, intersected — the same match lists a roll-up
// reads. Plans are sorted by document ID and the delta is the view's
// trailing ID range, so each tail is one binary search away and the
// work is proportional to the delta's matches, never to the corpus.
// The result may alias a plan and must not be modified.
func (v *DeltaView) MatchedInDelta(q Query) []int32 {
	if len(q) == 0 || v.n == 0 {
		return nil
	}
	var out []int32
	for i, c := range q {
		p := v.st.plan(c)
		tail := p.docs[p.from(v.base):]
		if i == 0 {
			out = tail
		} else {
			out = intersectSorted(out, tail)
		}
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// Score computes rel(q, d) = Σ cdr(c, d) at this generation, with the
// per-concept explanation — read from the plans RollUp reads, so a
// standing query and a from-scratch query over the same generation
// report byte-identical scores and evidence.
func (v *DeltaView) Score(q Query, doc int32) (float64, []ConceptContribution) {
	rel := 0.0
	contribs := make([]ConceptContribution, 0, len(q))
	for _, c := range q {
		cc := v.st.contribution(c, doc)
		rel += cc.CDR
		contribs = append(contribs, cc)
	}
	return rel, contribs
}

// SetIngestHook registers fn to run after every successful Ingest swap,
// before the batch's checkpoint, with a DeltaView over the documents
// the batch added. The hook runs under the ingest lock: evaluations are
// serialised in generation order, and the checkpoint that follows
// persists whatever state the hook committed. Pass nil to clear.
func (e *Engine) SetIngestHook(fn func(*DeltaView)) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.ingestHook = fn
}

// WithRecentView runs fn under the ingest lock with a DeltaView over
// the most recent n documents (the whole corpus when n < 0 or exceeds
// it; an empty delta when n == 0). Because the ingest hook runs under
// the same lock, fn cannot interleave with a delta evaluation — the
// watch subsystem uses that to pin "watch from generation G"
// registration atomically against concurrent ingests. A no-op before
// IndexCorpus.
func (e *Engine) WithRecentView(n int, fn func(*DeltaView)) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	st := e.state()
	if st == nil {
		return
	}
	total := st.snap.NumDocs()
	if n < 0 || n > total {
		n = total
	}
	// The view's base is the global ID of the first of the last n LOCAL
	// documents. A shard's ID space has gaps, so walk segments from the
	// tail instead of subtracting from the count (for a contiguous
	// snapshot the two are identical).
	base := int32(st.snap.DocBound())
	remaining := n
	for i := len(st.snap.Segments) - 1; i >= 0 && remaining > 0; i-- {
		seg := st.snap.Segments[i]
		take := seg.Len()
		if take > remaining {
			take = remaining
		}
		base = seg.Base + int32(seg.Len()-take)
		remaining -= take
	}
	fn(&DeltaView{st: st, base: base, n: n})
}
