// Package snapshot holds the engine's post-index corpus state as a set
// of immutable segments behind a point-in-time snapshot — the structure
// that makes live ingestion possible over a lock-free query path.
//
// The design follows the segmented-index architecture of LSM-style
// search systems (and of the risk-monitoring pipelines the paper's
// due-diligence scenario implies, where news arrives continuously):
//
//   - a Segment is the immutable product of indexing one batch of
//     documents: per-document records (source, linked entities, raw
//     entity term frequencies, candidate concepts), the display
//     articles, and two tables derived from the records: the
//     entity→document postings and the block-max term frequencies.
//     Once built, a segment is never written again, so any number of
//     query goroutines read it without synchronisation;
//   - a Snapshot is an ordered list of segments plus the statistics of
//     documents held on other shards, reporting corpus-GLOBAL entity
//     document frequencies (EntityDF, CorpusDocs), so term weights over
//     a grown corpus are bit-identical to a from-scratch rebuild.
//     Snapshots are stamped with a Generation
//     that increases with every content change; the engine publishes
//     the current snapshot through an atomic pointer and queries pin
//     one snapshot for their whole execution.
//
// Document IDs are global and dense: segment i owns the contiguous
// range [Base, Base+len(Docs)). IDs are append-only — a document never
// changes ID across ingests or merges — which is what lets
// generation-independent per-document values (entity lists, raw term
// frequencies, connectivity scores keyed by (concept, doc)) be shared
// across generations.
//
// What does NOT live here: anything derived from corpus-global term
// statistics (cdr scores, candidate rankings). Those change whenever
// the corpus grows and are recomputed per generation by the engine.
package snapshot

import (
	"sort"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
)

// DocRecord is the immutable, generation-independent indexing product
// of one document.
type DocRecord struct {
	// Source is the news portal the document came from.
	Source corpus.Source
	// Entities are the distinct linked entities in first-mention order.
	Entities []kg.NodeID
	// EntityFreq maps each linked entity to its mention count — the raw
	// term frequency behind tw(v, d). Its keys are exactly the Entities.
	EntityFreq map[kg.NodeID]int
	// Candidates are the document's candidate subtopic concepts (the
	// direct Ψ⁻¹ concepts of its entities plus the configured number of
	// `broader` ancestor levels), sorted by node ID. The set depends
	// only on the document and the graph; which candidates are *kept*
	// and how they score is generation-dependent and computed elsewhere.
	Candidates []kg.NodeID
	// PublishedAt is the document's publication time (Unix seconds,
	// UTC). Always non-zero once indexed: the engine defaults missing
	// timestamps at ingest, so time-range pruning never has to treat
	// zero as "unknown".
	PublishedAt int64
}

// Scoring blocks: the pruned query planner bounds scores per fixed
// window of the global document-ID space. BlockSize documents share a
// block; block b covers global IDs [b<<BlockShift, (b+1)<<BlockShift).
// Blocks are aligned to GLOBAL IDs (not segment-local ones) so block
// identities — and the per-block maxima below — survive segment merges
// unchanged.
const (
	// BlockShift is log2(BlockSize).
	BlockShift = 6
	// BlockSize is the number of consecutive global document IDs per
	// scoring block.
	BlockSize = 1 << BlockShift
)

// BlockTF records the maximum raw term frequency an entity reaches in
// one scoring block of a segment.
type BlockTF struct {
	// Block is the global block index (doc >> BlockShift).
	Block int32
	// TF is the maximum EntityFreq of the entity over the block's
	// documents within this segment (≥ 1: the entity occurs).
	TF int32
}

// Segment is one immutable indexed batch of documents.
type Segment struct {
	// Base is the global ID of the segment's first document.
	Base int32
	// Docs are the per-document records, indexed by local ID.
	Docs []DocRecord
	// Articles carries the display payload (title, body, source) for
	// each document, aligned with Docs. Article IDs are global.
	Articles []corpus.Document
	// EntDocs maps an entity to the GLOBAL IDs of the segment documents
	// mentioning it, ascending. Derived from Docs; its list lengths are
	// the segment's entity document frequencies.
	EntDocs map[kg.NodeID][]int32
	// MaxTF maps an entity to its per-block maximum raw term frequency
	// (blocks ascending; only blocks where the entity occurs appear).
	// This is the persistent half of the block-max score ceilings: the
	// saturation tf/(tf+1) is monotone in tf, so the block's maximum tf
	// bounds every document's saturated term weight in the block, for
	// any generation's idf. Derived deterministically from Docs (see
	// ComputeMaxTF), so decoders can validate it by recomputation.
	MaxTF map[kg.NodeID][]BlockTF
	// MinTime and MaxTime bound the PublishedAt values of the segment's
	// documents (inclusive; both zero for an empty segment). Derived
	// deterministically from Docs in BuildSegment — merges rebuild
	// through BuildSegment, so the bounds stay exact (never widened) —
	// letting queries discard whole segments disjoint from a time-range
	// filter before touching any posting list.
	MinTime int64
	MaxTime int64
}

// Len returns the segment's document count.
func (s *Segment) Len() int { return len(s.Docs) }

// Snapshot is a consistent point-in-time view of the whole indexed
// corpus: an ordered segment list plus the remote documents' entity
// statistics. Immutable after construction.
type Snapshot struct {
	// Generation increases with every content change (initial index = 1,
	// each ingested batch +1). Segment merges keep the generation: they
	// reorganise storage without changing any answer.
	Generation uint64
	// Segments are ordered by Base; ranges are contiguous from 0.
	Segments []*Segment

	numDocs    int
	docBound   int
	remoteDocs int
	remoteDF   map[kg.NodeID]int
}

// New assembles a snapshot over segments (which must be contiguous and
// in base order, starting at 0).
func New(generation uint64, segments []*Segment) *Snapshot {
	n := 0
	for _, seg := range segments {
		if int(seg.Base) != n {
			panic("snapshot: segments not contiguous")
		}
		n += seg.Len()
	}
	return NewSharded(generation, segments, 0, nil)
}

// NewSharded assembles a snapshot over one shard's segments of a
// corpus whose remaining documents live on other shards. Segments keep
// their GLOBAL document IDs, so the ID space seen here has gaps: bases
// must be ascending and ranges non-overlapping, but need not start at
// 0 or tile the space. remoteDocs and remoteDF (nil means none) are the
// document count and per-entity document frequencies of the documents
// held elsewhere, making every IDF read corpus-global — bit-identical to
// a monolithic snapshot over the union: DF and N are plain sums over
// disjoint document sets. Lookups by ID (Doc, Article, segmentOf)
// remain valid only for documents this shard owns; dense iteration must
// walk Segments rather than the ID range.
func NewSharded(generation uint64, segments []*Segment, remoteDocs int, remoteDF map[kg.NodeID]int) *Snapshot {
	n, bound := 0, 0
	for _, seg := range segments {
		if int(seg.Base) < bound {
			panic("snapshot: segments overlap or out of order")
		}
		n += seg.Len()
		bound = int(seg.Base) + seg.Len()
	}
	return &Snapshot{
		Generation: generation,
		Segments:   segments,
		numDocs:    n,
		docBound:   bound,
		remoteDocs: remoteDocs,
		remoteDF:   remoteDF,
	}
}

// NumDocs returns the total document count held locally.
func (s *Snapshot) NumDocs() int { return s.numDocs }

// CorpusDocs returns the corpus-global document count N: the local
// documents plus those held on other shards.
func (s *Snapshot) CorpusDocs() int { return s.numDocs + s.remoteDocs }

// EntityDF returns the corpus-global document frequency of entity v:
// its posting-list lengths over the local segments plus its remote
// document frequency.
func (s *Snapshot) EntityDF(v kg.NodeID) int {
	df := s.remoteDF[v]
	for _, seg := range s.Segments {
		df += len(seg.EntDocs[v])
	}
	return df
}

// DocBound returns one past the highest global document ID held
// locally. Arrays indexed by global ID must be sized by DocBound, not
// NumDocs: a sharded snapshot's ID space has gaps, so the two differ.
// For a contiguous (monolithic) snapshot they are equal.
func (s *Snapshot) DocBound() int { return s.docBound }

// segmentOf returns the segment owning a global document ID.
func (s *Snapshot) segmentOf(doc int32) *Segment {
	// Segments are few (merge policy bounds them); binary search over
	// bases keeps lookups cheap either way.
	lo, hi := 0, len(s.Segments)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Segments[mid].Base <= doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.Segments[lo-1]
}

// HasDoc reports whether the snapshot holds the document locally (a
// sharded snapshot's ID space has gaps where peers' segments live).
func (s *Snapshot) HasDoc(doc int32) bool {
	if doc < 0 || len(s.Segments) == 0 || doc < s.Segments[0].Base {
		return false
	}
	seg := s.segmentOf(doc)
	return doc-seg.Base < int32(len(seg.Docs))
}

// Doc returns the record of a global document ID.
func (s *Snapshot) Doc(doc int32) *DocRecord {
	seg := s.segmentOf(doc)
	return &seg.Docs[doc-seg.Base]
}

// Article returns the display document of a global ID. Because
// documents are append-only and immutable, reading an article through
// any snapshot at least as new as the one that served the query
// returns identical content.
func (s *Snapshot) Article(doc int32) *corpus.Document {
	seg := s.segmentOf(doc)
	return &seg.Articles[doc-seg.Base]
}

// BuildSegment assembles an immutable segment from per-document raw
// indexing products, deriving the postings, block-max tables and time
// bounds from the records. docs and articles must be aligned; article
// IDs are rewritten to their global values. The segment decoder builds
// through here too, so a decoded segment derives exactly what an
// indexed one does.
func BuildSegment(base int32, docs []DocRecord, articles []corpus.Document) *Segment {
	// Count first, so every posting list is an exact-capacity window of
	// one backing array: the lists live as long as the segment, and
	// append growth would leave up to half of each unused.
	counts := make(map[kg.NodeID]int)
	total := 0
	for i := range docs {
		for _, v := range docs[i].Entities {
			counts[v]++
		}
		total += len(docs[i].Entities)
	}
	backing := make([]int32, total)
	entDocs := make(map[kg.NodeID][]int32, len(counts))
	off := 0
	for v, n := range counts {
		entDocs[v] = backing[off : off : off+n]
		off += n
	}
	seg := &Segment{
		Base:     base,
		Docs:     docs,
		Articles: articles,
		EntDocs:  entDocs,
	}
	for i := range docs {
		global := base + int32(i)
		seg.Articles[i].ID = corpus.DocID(global)
		for _, v := range docs[i].Entities {
			entDocs[v] = append(entDocs[v], global)
		}
		if t := docs[i].PublishedAt; i == 0 {
			seg.MinTime, seg.MaxTime = t, t
		} else if t < seg.MinTime {
			seg.MinTime = t
		} else if t > seg.MaxTime {
			seg.MaxTime = t
		}
	}
	seg.MaxTF = ComputeMaxTF(base, docs)
	return seg
}

// ComputeMaxTF derives the per-entity, per-block maximum raw term
// frequencies of a segment from its document records.
func ComputeMaxTF(base int32, docs []DocRecord) map[kg.NodeID][]BlockTF {
	out := make(map[kg.NodeID][]BlockTF)
	for i := range docs {
		block := (base + int32(i)) >> BlockShift
		// Entities is the distinct-entity list, so each (doc, entity)
		// pair is visited once; blocks arrive in ascending order because
		// docs are ID-ordered.
		for _, v := range docs[i].Entities {
			tf := int32(docs[i].EntityFreq[v])
			if tf <= 0 {
				continue
			}
			bt := out[v]
			if n := len(bt); n > 0 && bt[n-1].Block == block {
				if tf > bt[n-1].TF {
					bt[n-1].TF = tf
				}
			} else {
				out[v] = append(bt, BlockTF{Block: block, TF: tf})
			}
		}
	}
	// Repack into one exact-size array: the tables live as long as the
	// segment, and append growth would leave up to half of each unused.
	total := 0
	for _, bt := range out {
		total += len(bt)
	}
	packed := make([]BlockTF, 0, total)
	for v, bt := range out {
		start := len(packed)
		packed = append(packed, bt...)
		out[v] = packed[start:len(packed):len(packed)]
	}
	return out
}

// EntityMaxTF calls fn with each segment's block-max table for entity
// v. Segment tables cover disjoint document ranges but may share a
// block at segment boundaries (blocks are global-ID windows; a window
// can span two segments), so a block index may appear in more than one
// call — consumers take the running maximum per block.
func (s *Snapshot) EntityMaxTF(v kg.NodeID, fn func(table []BlockTF)) {
	for _, seg := range s.Segments {
		if table := seg.MaxTF[v]; len(table) > 0 {
			fn(table)
		}
	}
}

// NumBlocks returns the number of scoring blocks covering the local
// document-ID range. Block indexes derive from global IDs, so the
// count is bound-based: a sharded snapshot's blocks cover [0, DocBound)
// even though gap blocks hold no local documents.
func (s *Snapshot) NumBlocks() int {
	return (s.docBound + BlockSize - 1) / BlockSize
}

// Merge concatenates adjacent segments into one. Raw per-document data
// is carried over untouched and the derived tables are rebuilt from
// it, so the merged segment indexes exactly the
// same content: every corpus-global statistic — and therefore every
// query answer — is unchanged. Merging is a storage reorganisation,
// not a content change, which is why it does not bump the generation.
func Merge(segments []*Segment) *Segment {
	n := 0
	for _, seg := range segments {
		n += seg.Len()
	}
	docs := make([]DocRecord, 0, n)
	articles := make([]corpus.Document, 0, n)
	for _, seg := range segments {
		docs = append(docs, seg.Docs...)
		articles = append(articles, seg.Articles...)
	}
	return BuildSegment(segments[0].Base, docs, articles)
}

// Rebase re-addresses a segment built at a speculative base to its
// committed base. Only the base-dependent products change: article IDs,
// the global entity→document postings (shifted in place), and the
// block-max tables (recomputed — block boundaries are global-ID
// windows, so a shift can re-bucket documents). The document records
// are local-ID data and are untouched. The segment
// must not have been published yet: Rebase mutates it in place and
// returns it.
func Rebase(seg *Segment, base int32) *Segment {
	if base == seg.Base {
		return seg
	}
	delta := base - seg.Base
	for i := range seg.Articles {
		seg.Articles[i].ID = corpus.DocID(base + int32(i))
	}
	for _, docs := range seg.EntDocs {
		for i := range docs {
			docs[i] += delta
		}
	}
	seg.Base = base
	seg.MaxTF = ComputeMaxTF(base, seg.Docs)
	return seg
}

// SortedCandidates sorts and dedupes a candidate concept list in
// place, returning it (helper for segment builders).
func SortedCandidates(cands []kg.NodeID) []kg.NodeID {
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	out := cands[:0]
	for i, c := range cands {
		if i == 0 || c != cands[i-1] {
			out = append(out, c)
		}
	}
	return out
}
