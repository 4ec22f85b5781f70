package snapshot

import (
	"reflect"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
)

// record builds a DocRecord over entity IDs with tf = 1 + (id % 3).
func record(src corpus.Source, ents ...kg.NodeID) DocRecord {
	freq := make(map[kg.NodeID]int, len(ents))
	for _, v := range ents {
		freq[v] = 1 + int(v)%3
	}
	return DocRecord{Source: src, Entities: ents, EntityFreq: freq}
}

func buildWorld(t *testing.T) ([]DocRecord, []corpus.Document) {
	t.Helper()
	var docs []DocRecord
	var arts []corpus.Document
	for i := 0; i < 9; i++ {
		ents := []kg.NodeID{kg.NodeID(i % 4), kg.NodeID(10 + i%3)}
		docs = append(docs, record(corpus.Source(i%3), ents...))
		arts = append(arts, corpus.Document{
			Source: corpus.Source(i % 3),
			Title:  "t",
			Body:   "b",
		})
	}
	return docs, arts
}

func TestSegmentGlobalIDs(t *testing.T) {
	docs, arts := buildWorld(t)
	seg := BuildSegment(100, docs, arts)
	if seg.Len() != len(docs) {
		t.Fatalf("len = %d, want %d", seg.Len(), len(docs))
	}
	for i, a := range seg.Articles {
		if int(a.ID) != 100+i {
			t.Fatalf("article %d ID = %d, want %d", i, a.ID, 100+i)
		}
	}
	for v, list := range seg.EntDocs {
		for i, d := range list {
			if d < 100 || int(d) >= 100+len(docs) {
				t.Fatalf("entity %d posting %d out of segment range", v, d)
			}
			if i > 0 && list[i-1] >= d {
				t.Fatalf("entity %d postings not ascending", v)
			}
		}
	}
}

// TestSnapshotPartitionEquivalence checks that splitting the same
// document set across segments changes nothing observable: doc
// lookups, entity postings (streamed in global order), and the
// corpus-global entity statistics all match the single-segment
// snapshot — also when some segments are held remotely and only their
// statistics are folded in.
func TestSnapshotPartitionEquivalence(t *testing.T) {
	docs, arts := buildWorld(t)
	one := New(1, []*Segment{BuildSegment(0, docs, arts)})

	split := New(1, []*Segment{
		BuildSegment(0, docs[:4], arts[:4]),
		BuildSegment(4, docs[4:6], arts[4:6]),
		BuildSegment(6, docs[6:], arts[6:]),
	})
	if one.NumDocs() != split.NumDocs() {
		t.Fatalf("NumDocs %d vs %d", one.NumDocs(), split.NumDocs())
	}
	for d := int32(0); d < int32(one.NumDocs()); d++ {
		if !reflect.DeepEqual(one.Doc(d), split.Doc(d)) {
			t.Fatalf("doc %d differs across partitions", d)
		}
		if !reflect.DeepEqual(one.Article(d), split.Article(d)) {
			t.Fatalf("article %d differs across partitions", d)
		}
	}
	for v := kg.NodeID(0); v < 16; v++ {
		if a, b := entityDocs(one, v), entityDocs(split, v); !reflect.DeepEqual(a, b) {
			t.Fatalf("entity %d postings differ: %v vs %v", v, a, b)
		}
	}
	// The middle segment lives on another shard: its document count and
	// posting lengths travel as remote statistics.
	remoteDF := map[kg.NodeID]int{}
	for v, l := range split.Segments[1].EntDocs {
		remoteDF[v] = len(l)
	}
	sharded := NewSharded(1, []*Segment{split.Segments[0], split.Segments[2]}, split.Segments[1].Len(), remoteDF)
	for _, s := range []*Snapshot{one, split, sharded} {
		if s.CorpusDocs() != len(docs) {
			t.Fatalf("CorpusDocs = %d, want %d", s.CorpusDocs(), len(docs))
		}
	}
	for v := kg.NodeID(0); v < 16; v++ {
		want := 0
		for i := range docs {
			if _, ok := docs[i].EntityFreq[v]; ok {
				want++
			}
		}
		for _, s := range []*Snapshot{one, split, sharded} {
			if got := s.EntityDF(v); got != want {
				t.Fatalf("EntityDF(%d) = %d, want %d", v, got, want)
			}
		}
	}
}

// TestMergePreservesEverything: merging adjacent segments must leave
// every observable value — including the rebuilt derived tables —
// exactly as before.
func TestMergePreservesEverything(t *testing.T) {
	docs, arts := buildWorld(t)
	segs := []*Segment{
		BuildSegment(0, docs[:3], arts[:3]),
		BuildSegment(3, docs[3:5], arts[3:5]),
		BuildSegment(5, docs[5:], arts[5:]),
	}
	before := New(3, segs)
	merged := Merge(segs[1:])
	after := New(3, []*Segment{segs[0], merged})
	if merged.Base != 3 || merged.Len() != 6 {
		t.Fatalf("merged base/len = %d/%d, want 3/6", merged.Base, merged.Len())
	}
	for d := int32(0); d < int32(before.NumDocs()); d++ {
		if !reflect.DeepEqual(before.Doc(d), after.Doc(d)) {
			t.Fatalf("doc %d differs after merge", d)
		}
	}
	for v := kg.NodeID(0); v < 16; v++ {
		if before.EntityDF(v) != after.EntityDF(v) {
			t.Fatalf("EntityDF(%d) changed across merge", v)
		}
		if a, b := entityDocs(before, v), entityDocs(after, v); !reflect.DeepEqual(a, b) {
			t.Fatalf("entity %d postings changed across merge", v)
		}
	}
}

// entityDocs concatenates every segment's posting list for v, in
// global-ID order.
func entityDocs(s *Snapshot, v kg.NodeID) []int32 {
	var out []int32
	for _, seg := range s.Segments {
		out = append(out, seg.EntDocs[v]...)
	}
	return out
}

func TestNonContiguousSegmentsPanic(t *testing.T) {
	docs, arts := buildWorld(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-contiguous segments")
		}
	}()
	New(1, []*Segment{BuildSegment(5, docs, arts)})
}

// collectMaxTF folds a snapshot's per-segment block-max tables into one
// per-block maximum, the way the planner consumes them.
func collectMaxTF(s *Snapshot, v kg.NodeID) map[int32]int32 {
	out := map[int32]int32{}
	s.EntityMaxTF(v, func(table []BlockTF) {
		for _, bt := range table {
			if bt.TF > out[bt.Block] {
				out[bt.Block] = bt.TF
			}
		}
	})
	return out
}

// TestMaxTFBoundsEveryDocument: the folded block-max table must
// dominate the raw tf of every (entity, doc) pair, and every recorded
// block must be realised by at least one document (tightness).
func TestMaxTFBoundsEveryDocument(t *testing.T) {
	docs, arts := buildWorld(t)
	s := New(1, []*Segment{
		BuildSegment(0, docs[:4], arts[:4]),
		BuildSegment(4, docs[4:], arts[4:]),
	})
	for v := kg.NodeID(0); v < 16; v++ {
		folded := collectMaxTF(s, v)
		realised := map[int32]int32{}
		for d := int32(0); d < int32(s.NumDocs()); d++ {
			tf := int32(s.Doc(d).EntityFreq[v])
			if tf == 0 {
				continue
			}
			block := d >> BlockShift
			if tf > folded[block] {
				t.Fatalf("entity %d doc %d tf %d exceeds block max %d", v, d, tf, folded[block])
			}
			if tf > realised[block] {
				realised[block] = tf
			}
		}
		if !reflect.DeepEqual(folded, realised) {
			t.Fatalf("entity %d block maxima not tight: folded %v, realised %v", v, folded, realised)
		}
	}
}

// TestMaxTFMergeInvariant: blocks are global-ID aligned, so folding
// the tables of split segments equals the merged segment's table.
func TestMaxTFMergeInvariant(t *testing.T) {
	docs, arts := buildWorld(t)
	segs := []*Segment{
		BuildSegment(0, docs[:3], arts[:3]),
		BuildSegment(3, docs[3:5], arts[3:5]),
		BuildSegment(5, docs[5:], arts[5:]),
	}
	before := New(3, segs)
	after := New(3, []*Segment{segs[0], Merge(segs[1:])})
	for v := kg.NodeID(0); v < 16; v++ {
		if !reflect.DeepEqual(collectMaxTF(before, v), collectMaxTF(after, v)) {
			t.Fatalf("entity %d block maxima changed across merge", v)
		}
	}
}

// TestMaxTFSegmentBoundaryShare: a base not aligned to BlockSize
// makes the boundary block span two segments; both tables must report
// it and the fold must take the maximum.
func TestMaxTFSegmentBoundaryShare(t *testing.T) {
	v := kg.NodeID(7)
	mk := func(tf int) DocRecord {
		return DocRecord{Entities: []kg.NodeID{v}, EntityFreq: map[kg.NodeID]int{v: tf}}
	}
	a := BuildSegment(0, []DocRecord{mk(2), mk(5)}, make([]corpus.Document, 2))
	b := BuildSegment(2, []DocRecord{mk(9)}, make([]corpus.Document, 1))
	s := New(1, []*Segment{a, b})
	if got := collectMaxTF(s, v); len(got) != 1 || got[0] != 9 {
		t.Fatalf("boundary fold = %v, want block 0 -> 9", got)
	}
	calls := 0
	s.EntityMaxTF(v, func([]BlockTF) { calls++ })
	if calls != 2 {
		t.Fatalf("expected both segments to report block 0, got %d calls", calls)
	}
	if want := (2 + BlockSize - 1) / BlockSize; s.NumBlocks() != want {
		t.Fatalf("NumBlocks = %d, want %d", s.NumBlocks(), want)
	}
}

// TestShardedSnapshotGaps: a shard's snapshot holds segments with gaps
// between them. DocBound is one past its highest local ID, NumDocs
// counts only local documents, and HasDoc is true exactly on the
// segments' ranges.
func TestShardedSnapshotGaps(t *testing.T) {
	docs, arts := buildWorld(t)
	s := NewSharded(2, []*Segment{
		BuildSegment(4, docs[:3], arts[:3]),
		BuildSegment(20, docs[3:], arts[3:]),
	}, 0, nil)
	if s.NumDocs() != len(docs) || s.DocBound() != 20+len(docs)-3 {
		t.Fatalf("NumDocs/DocBound = %d/%d, want %d/%d", s.NumDocs(), s.DocBound(), len(docs), 20+len(docs)-3)
	}
	for d := int32(-1); d < int32(s.DocBound())+3; d++ {
		want := (d >= 4 && d < 7) || (d >= 20 && d < int32(s.DocBound()))
		if s.HasDoc(d) != want {
			t.Fatalf("HasDoc(%d) = %v, want %v", d, s.HasDoc(d), want)
		}
		if want && !reflect.DeepEqual(*s.Doc(d), docs[local(d)]) {
			t.Fatalf("Doc(%d) is not the record it was built from", d)
		}
	}
	if empty := NewSharded(1, nil, 0, nil); empty.HasDoc(0) || empty.DocBound() != 0 {
		t.Fatal("an empty snapshot holds documents")
	}
	// The contiguous case: DocBound equals NumDocs.
	if one := New(1, []*Segment{BuildSegment(0, docs, arts)}); one.DocBound() != one.NumDocs() {
		t.Fatalf("contiguous DocBound %d != NumDocs %d", one.DocBound(), one.NumDocs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping segments")
		}
	}()
	NewSharded(1, []*Segment{BuildSegment(4, docs[:3], arts[:3]), BuildSegment(5, docs[3:], arts[3:])}, 0, nil)
}

// local maps TestShardedSnapshotGaps' global IDs back to buildWorld
// indexes.
func local(d int32) int {
	if d < 20 {
		return int(d - 4)
	}
	return int(d-20) + 3
}

// TestRebaseMatchesBuildAtBase: a segment built at a speculative base
// and rebased equals one built at the committed base in everything
// base-dependent (article IDs, entity postings, block-max tables), and
// its time bounds and local data are untouched. Rebasing to the same
// base is a no-op.
func TestRebaseMatchesBuildAtBase(t *testing.T) {
	fresh := func() ([]DocRecord, []corpus.Document) {
		docs, arts := buildWorld(t)
		for i := range docs {
			docs[i].PublishedAt = int64(1000 + 37*((i*5)%len(docs)))
		}
		// An entity with a zero count never enters a block-max table.
		docs[0].Entities = append(docs[0].Entities, 99)
		docs[0].EntityFreq[99] = 0
		return docs, arts
	}
	for _, base := range []int32{3, 60, 200} {
		docs, arts := fresh()
		seg := BuildSegment(0, docs, arts)
		if got := Rebase(seg, 0); got != seg {
			t.Fatal("Rebase to the same base must return the segment unchanged")
		}
		wantDocs, wantArts := fresh()
		want := BuildSegment(base, wantDocs, wantArts)
		got := Rebase(seg, base)
		if got.Base != base || !reflect.DeepEqual(got.Articles, want.Articles) ||
			!reflect.DeepEqual(got.EntDocs, want.EntDocs) || !reflect.DeepEqual(got.MaxTF, want.MaxTF) {
			t.Fatalf("base %d: rebased segment differs from one built there:\n got  %+v %+v\n want %+v %+v",
				base, got.EntDocs, got.MaxTF, want.EntDocs, want.MaxTF)
		}
		if got.MinTime != want.MinTime || got.MaxTime != want.MaxTime || got.MinTime != 1000 {
			t.Fatalf("base %d: time bounds %d..%d, want %d..%d", base, got.MinTime, got.MaxTime, want.MinTime, want.MaxTime)
		}
		if _, ok := got.MaxTF[99]; ok {
			t.Fatal("a zero-count entity entered the block-max table")
		}
	}
}

func TestSortedCandidates(t *testing.T) {
	for _, tc := range []struct{ in, want []kg.NodeID }{
		{nil, []kg.NodeID{}},
		{[]kg.NodeID{5}, []kg.NodeID{5}},
		{[]kg.NodeID{9, 2, 9, 4, 2, 2, 11, 4}, []kg.NodeID{2, 4, 9, 11}},
	} {
		got := SortedCandidates(append([]kg.NodeID(nil), tc.in...))
		if len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
			t.Fatalf("SortedCandidates(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
