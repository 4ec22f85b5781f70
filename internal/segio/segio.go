// Package segio serializes the engine's immutable index segments (and
// their companion artifacts) to a durable, versioned on-disk format,
// so a restarted process reopens its corpus in O(read) instead of
// re-running the NLP/linking/scoring pipeline over every article.
//
// Design, following the manifest-plus-immutable-files layout of
// LSM-style search engines:
//
//   - one segment = one file, written once and never modified. The
//     format is length-prefixed binary: a magic + format-version
//     header, then a fixed sequence of sections (document records,
//     display articles, the frozen text index, entity→document
//     postings), each carrying its own CRC32 so a flipped bit anywhere
//     is detected before any partially-decoded state can escape;
//   - a directory is described by a MANIFEST (JSON, see manifest.go)
//     written via temp-file + atomic rename. Readers trust only what
//     the manifest references; anything else in the directory is
//     garbage from an interrupted save and is ignored (and collected
//     by the next successful save);
//   - the encoding is canonical: all maps are emitted in sorted key
//     order and the decoder rejects non-canonical input (unsorted or
//     duplicate keys, trailing bytes, out-of-range IDs). Consequently
//     encode(decode(b)) == b for every accepted b — the property the
//     fuzz battery pins — and re-saving an unchanged segment always
//     reproduces the same bytes, which is what lets saves skip
//     segment files that already exist on disk.
//
// Version evolution policy: formatVersion is bumped on any
// incompatible layout change; decoders reject newer versions with
// ErrVersionMismatch (never a guess), and may keep read paths for
// older versions. The manifest carries its own format_version with the
// same rule.
//
// All decode failures are typed: errors.Is(err, ErrCorrupt) or
// errors.Is(err, ErrVersionMismatch) always holds, and the error text
// names the failing section. Decoders never panic on arbitrary input
// and never allocate more than a small constant factor of the input
// size (all counts are validated against the bytes that remain).
package segio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/snapshot"
	"ncexplorer/internal/textindex"
)

// Typed decode failures. Every error returned by a decoder in this
// package wraps exactly one of these sentinels.
var (
	// ErrCorrupt marks bytes that are not a well-formed artifact of the
	// current format: bad magic, truncation, CRC mismatch, structural
	// violations.
	ErrCorrupt = errors.New("segio: corrupt snapshot data")
	// ErrVersionMismatch marks a well-formed header whose format version
	// this build does not understand (a future writer's output).
	ErrVersionMismatch = errors.New("segio: unsupported snapshot format version")
	// ErrNoSnapshot marks a directory with no MANIFEST — not corruption,
	// just nothing saved there yet.
	ErrNoSnapshot = errors.New("segio: no snapshot manifest in directory")
)

const (
	segmentMagic = "NCSG"
	connMagic    = "NCCM"
	// formatVersion is the binary layout version shared by segment and
	// conn-memo files (the manifest versions independently). v2 added
	// the BMAX section (per-entity per-block maximum term frequencies
	// backing the pruned query planner's persisted score ceilings). v3
	// added the per-document/per-article PublishedAt timestamp to the
	// DOCS and ARTS sections (the temporal roll-up dimension).
	formatVersion = 3

	// maxSegmentDocs bounds the per-segment document count a decoder
	// will accept; far above anything the engine produces, low enough
	// that hostile counts cannot drive large allocations before the
	// remaining-bytes checks kick in.
	maxSegmentDocs = 1 << 28
)

// Section tags, in the order they appear in a segment file.
var segmentSections = [5]string{"DOCS", "ARTS", "TEXT", "POST", "BMAX"}

// segmentSizeHint estimates the encoded size of a segment so the
// encoder can allocate its output buffer once. The ARTS section
// (article bodies) dominates; the entity-shaped sections are bounded
// by a small multiple of the per-document entity data. Under-estimates
// only cost a buffer growth, never correctness.
func segmentSizeHint(seg *snapshot.Segment) int {
	n := 128
	for i := range seg.Articles {
		a := &seg.Articles[i]
		n += len(a.Title) + len(a.Body) + 56 + 12*len(a.Topics) + 4*len(a.GoldEntities)
	}
	for i := range seg.Docs {
		d := &seg.Docs[i]
		// DOCS itself, plus TEXT/POST/BMAX whose payloads mirror the
		// per-document entity and term data.
		n += 40 + 12*(len(d.Entities)+len(d.EntityFreq)+len(d.Candidates))
	}
	return n
}

// EncodeSegment renders a segment in the canonical on-disk format.
// Sections are encoded directly into one pre-sized buffer — the length
// prefix is backfilled and the CRC computed over the in-place payload
// — so the bytes are written exactly once (this runs on the
// group-commit writer, where every cycle competes with ingest).
func EncodeSegment(seg *snapshot.Segment) []byte {
	encoders := [5]func(*writer, *snapshot.Segment){
		encodeDocs, encodeArticles, encodeText, encodePostings, encodeBlockMax,
	}
	out := writer{buf: make([]byte, 0, segmentSizeHint(seg))}
	out.bytes([]byte(segmentMagic))
	out.u16(formatVersion)
	for i, enc := range encoders {
		out.bytes([]byte(segmentSections[i]))
		lenAt := len(out.buf)
		out.u64(0) // placeholder, backfilled once the payload length is known
		start := len(out.buf)
		enc(&out, seg)
		binary.LittleEndian.PutUint64(out.buf[lenAt:], uint64(len(out.buf)-start))
		sum := crc32.ChecksumIEEE(out.buf[start:])
		out.u32(sum)
	}
	return out.buf
}

// DecodeSegment parses a segment file produced by EncodeSegment. On
// success the returned segment is fully initialized (including the
// frozen text index). Any failure returns a nil segment and an error
// wrapping ErrCorrupt or ErrVersionMismatch; arbitrary input never
// panics.
func DecodeSegment(data []byte) (*snapshot.Segment, error) {
	r := &reader{buf: data}
	if string(r.take(4)) != segmentMagic {
		return nil, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := r.u16(); r.err == nil && v != formatVersion {
		return nil, fmt.Errorf("%w: segment format version %d (this build reads %d)", ErrVersionMismatch, v, formatVersion)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated segment header", ErrCorrupt)
	}
	sections := make([][]byte, len(segmentSections))
	for i, tag := range segmentSections {
		if got := string(r.take(4)); r.err != nil || got != tag {
			return nil, fmt.Errorf("%w: section %s: missing or out of order", ErrCorrupt, tag)
		}
		n := r.u64()
		if r.err != nil || n > uint64(r.remaining()) {
			return nil, fmt.Errorf("%w: section %s: length exceeds file", ErrCorrupt, tag)
		}
		payload := r.take(int(n))
		sum := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("%w: section %s: truncated", ErrCorrupt, tag)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: section %s: CRC mismatch", ErrCorrupt, tag)
		}
		sections[i] = payload
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after final section", ErrCorrupt, r.remaining())
	}

	seg := &snapshot.Segment{}
	if err := decodeDocs(sections[0], seg); err != nil {
		return nil, err
	}
	if err := decodeArticles(sections[1], seg); err != nil {
		return nil, err
	}
	if err := decodeText(sections[2], seg); err != nil {
		return nil, err
	}
	if err := decodePostings(sections[3], seg); err != nil {
		return nil, err
	}
	if err := decodeBlockMax(sections[4], seg); err != nil {
		return nil, err
	}
	return seg, nil
}

// corruptf builds a section-scoped ErrCorrupt.
func corruptf(section, format string, args ...any) error {
	return fmt.Errorf("%w: section %s: %s", ErrCorrupt, section, fmt.Sprintf(format, args...))
}

// ---- DOCS: per-document records -----------------------------------

func encodeDocs(w *writer, seg *snapshot.Segment) {
	w.u32(uint32(seg.Base))
	w.u32(uint32(len(seg.Docs)))
	for i := range seg.Docs {
		d := &seg.Docs[i]
		w.u8(uint8(d.Source))
		w.u64(uint64(d.PublishedAt))
		w.u32(uint32(len(d.Entities)))
		for _, v := range d.Entities {
			w.u32(uint32(v))
		}
		ents := make([]kg.NodeID, 0, len(d.EntityFreq))
		for v := range d.EntityFreq {
			ents = append(ents, v)
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a] < ents[b] })
		w.u32(uint32(len(ents)))
		for _, v := range ents {
			w.u32(uint32(v))
			w.u32(uint32(d.EntityFreq[v]))
		}
		w.u32(uint32(len(d.Candidates)))
		for _, c := range d.Candidates {
			w.u32(uint32(c))
		}
	}
}

func decodeDocs(data []byte, seg *snapshot.Segment) error {
	const section = "DOCS"
	r := &reader{buf: data}
	base := int32(r.u32())
	n := int(r.u32())
	// 21 = the minimum encoded size of one document record; the bound
	// keeps hostile counts from driving large allocations.
	if r.err != nil || base < 0 || n < 0 || n > maxSegmentDocs || uint64(n)*21 > uint64(r.remaining()) {
		return corruptf(section, "bad base/count header")
	}
	seg.Base = base
	seg.Docs = make([]snapshot.DocRecord, 0, n)
	for i := 0; i < n; i++ {
		var d snapshot.DocRecord
		d.Source = corpus.Source(r.u8())
		d.PublishedAt = int64(r.u64())
		d.Entities = r.nodeList(section, false)
		nf := r.count(section, 8)
		d.EntityFreq = make(map[kg.NodeID]int, nf)
		prev := kg.NodeID(-1)
		for j := 0; j < nf; j++ {
			v := kg.NodeID(r.u32())
			f := int(r.u32())
			if r.err != nil {
				break
			}
			if v < 0 || v <= prev || f <= 0 {
				return corruptf(section, "doc %d: entity frequencies not canonical", i)
			}
			prev = v
			d.EntityFreq[v] = f
		}
		d.Candidates = r.nodeList(section, true)
		if r.err != nil {
			return r.err
		}
		seg.Docs = append(seg.Docs, d)
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return corruptf(section, "trailing bytes")
	}
	// The segment time bounds are derived data (BuildSegment computes
	// them from Docs), so they are recomputed here rather than trusted
	// from the wire.
	for i := range seg.Docs {
		if t := seg.Docs[i].PublishedAt; i == 0 {
			seg.MinTime, seg.MaxTime = t, t
		} else if t < seg.MinTime {
			seg.MinTime = t
		} else if t > seg.MaxTime {
			seg.MaxTime = t
		}
	}
	return nil
}

// ---- ARTS: display articles ---------------------------------------

func encodeArticles(w *writer, seg *snapshot.Segment) {
	w.u32(uint32(len(seg.Articles)))
	for i := range seg.Articles {
		a := &seg.Articles[i]
		w.u32(uint32(a.ID))
		w.u8(uint8(a.Source))
		w.u64(uint64(a.PublishedAt))
		w.str(a.Title)
		w.str(a.Body)
		topics := make([]kg.NodeID, 0, len(a.Topics))
		for c := range a.Topics {
			topics = append(topics, c)
		}
		sort.Slice(topics, func(x, y int) bool { return topics[x] < topics[y] })
		w.u32(uint32(len(topics)))
		for _, c := range topics {
			w.u32(uint32(c))
			w.u64(math.Float64bits(a.Topics[c]))
		}
		w.u32(uint32(len(a.GoldEntities)))
		for _, v := range a.GoldEntities {
			w.u32(uint32(v))
		}
		if a.Distractor {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
}

func decodeArticles(data []byte, seg *snapshot.Segment) error {
	const section = "ARTS"
	r := &reader{buf: data}
	n := int(r.u32())
	// 30 = the minimum encoded size of one article.
	if r.err != nil || n != len(seg.Docs) || uint64(n)*30 > uint64(r.remaining()) {
		return corruptf(section, "article count disagrees with DOCS")
	}
	seg.Articles = make([]corpus.Document, 0, n)
	for i := 0; i < n; i++ {
		var a corpus.Document
		a.ID = corpus.DocID(r.u32())
		a.Source = corpus.Source(r.u8())
		a.PublishedAt = int64(r.u64())
		a.Title = r.str()
		a.Body = r.str()
		if r.err == nil && int32(a.ID) != seg.Base+int32(i) {
			return corruptf(section, "article %d: ID %d outside segment range", i, a.ID)
		}
		nt := r.count(section, 12)
		if nt > 0 {
			a.Topics = make(map[kg.NodeID]float64, nt)
		}
		prev := kg.NodeID(-1)
		for j := 0; j < nt; j++ {
			c := kg.NodeID(r.u32())
			grade := math.Float64frombits(r.u64())
			if r.err != nil {
				break
			}
			if c < 0 || c <= prev {
				return corruptf(section, "article %d: topics not canonical", i)
			}
			prev = c
			a.Topics[c] = grade
		}
		a.GoldEntities = r.nodeList(section, false)
		switch r.u8() {
		case 0:
		case 1:
			a.Distractor = true
		default:
			if r.err == nil {
				return corruptf(section, "article %d: bad distractor flag", i)
			}
		}
		if r.err != nil {
			return r.err
		}
		seg.Articles = append(seg.Articles, a)
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return corruptf(section, "trailing bytes")
	}
	return nil
}

// ---- TEXT: the frozen per-segment text index ----------------------

func encodeText(w *writer, seg *snapshot.Segment) {
	terms := seg.Text.Terms()
	w.u32(uint32(seg.Text.NumDocs()))
	w.u32(uint32(len(terms)))
	for _, term := range terms {
		w.str(term)
		ps := seg.Text.Postings(term)
		w.u32(uint32(len(ps)))
		for _, p := range ps {
			w.u32(uint32(p.Doc))
			w.u32(uint32(p.TF))
		}
	}
}

func decodeText(data []byte, seg *snapshot.Segment) error {
	const section = "TEXT"
	r := &reader{buf: data}
	if nd := int(r.u32()); r.err != nil || nd != len(seg.Docs) {
		return corruptf(section, "document count disagrees with DOCS")
	}
	nt := r.count(section, 5)
	terms := make([]string, 0, nt)
	postings := make([][]textindex.Posting, 0, nt)
	prevTerm := ""
	for i := 0; i < nt; i++ {
		term := r.str()
		if r.err != nil {
			return r.err
		}
		if i > 0 && term <= prevTerm {
			return corruptf(section, "terms not sorted")
		}
		prevTerm = term
		np := r.count(section, 8)
		ps := make([]textindex.Posting, 0, np)
		prevDoc := int32(-1)
		for j := 0; j < np; j++ {
			doc := int32(r.u32())
			tf := int32(r.u32())
			if r.err != nil {
				return r.err
			}
			if doc <= prevDoc || int(doc) >= len(seg.Docs) || tf <= 0 {
				return corruptf(section, "term %q: postings not canonical", term)
			}
			prevDoc = doc
			ps = append(ps, textindex.Posting{Doc: doc, TF: tf})
		}
		terms = append(terms, term)
		postings = append(postings, ps)
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return corruptf(section, "trailing bytes")
	}
	seg.Text = textindex.Restore(len(seg.Docs), terms, postings)
	return nil
}

// ---- POST: entity → global document postings ----------------------

func encodePostings(w *writer, seg *snapshot.Segment) {
	ents := make([]kg.NodeID, 0, len(seg.EntDocs))
	for v := range seg.EntDocs {
		ents = append(ents, v)
	}
	sort.Slice(ents, func(a, b int) bool { return ents[a] < ents[b] })
	w.u32(uint32(len(ents)))
	for _, v := range ents {
		docs := seg.EntDocs[v]
		w.u32(uint32(v))
		w.u32(uint32(len(docs)))
		for _, d := range docs {
			w.u32(uint32(d))
		}
	}
}

func decodePostings(data []byte, seg *snapshot.Segment) error {
	const section = "POST"
	r := &reader{buf: data}
	ne := r.count(section, 8)
	seg.EntDocs = make(map[kg.NodeID][]int32, ne)
	prevEnt := kg.NodeID(-1)
	lo, hi := seg.Base, seg.Base+int32(len(seg.Docs))
	for i := 0; i < ne; i++ {
		v := kg.NodeID(r.u32())
		if r.err != nil {
			return r.err
		}
		if v < 0 || v <= prevEnt {
			return corruptf(section, "entities not sorted")
		}
		prevEnt = v
		nd := r.count(section, 4)
		if r.err == nil && nd == 0 {
			return corruptf(section, "entity %d: empty posting list", v)
		}
		docs := make([]int32, 0, nd)
		prevDoc := int32(-1)
		for j := 0; j < nd; j++ {
			d := int32(r.u32())
			if r.err != nil {
				return r.err
			}
			if d <= prevDoc || d < lo || d >= hi {
				return corruptf(section, "entity %d: postings not canonical", v)
			}
			prevDoc = d
			docs = append(docs, d)
		}
		seg.EntDocs[v] = docs
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return corruptf(section, "trailing bytes")
	}
	return nil
}

// ---- BMAX: per-entity per-block maximum term frequencies ----------
//
// The table is fully derivable from the DOCS section, so the decoder
// validates it by recomputation rather than trusting the bytes: a
// tampered ceiling could otherwise silently change pruning decisions
// (an understated maximum would drop correct results). Persisting it
// anyway keeps warm opens from re-deriving the planner's inputs and,
// more importantly, pins the canonical form on disk.

func encodeBlockMax(w *writer, seg *snapshot.Segment) {
	ents := make([]kg.NodeID, 0, len(seg.MaxTF))
	for v := range seg.MaxTF {
		ents = append(ents, v)
	}
	sort.Slice(ents, func(a, b int) bool { return ents[a] < ents[b] })
	w.u32(uint32(len(ents)))
	for _, v := range ents {
		table := seg.MaxTF[v]
		w.u32(uint32(v))
		w.u32(uint32(len(table)))
		for _, bt := range table {
			w.u32(uint32(bt.Block))
			w.u32(uint32(bt.TF))
		}
	}
}

func decodeBlockMax(data []byte, seg *snapshot.Segment) error {
	const section = "BMAX"
	r := &reader{buf: data}
	ne := r.count(section, 8)
	got := make(map[kg.NodeID][]snapshot.BlockTF, ne)
	prevEnt := kg.NodeID(-1)
	for i := 0; i < ne; i++ {
		v := kg.NodeID(r.u32())
		if r.err != nil {
			return r.err
		}
		if v < 0 || v <= prevEnt {
			return corruptf(section, "entities not sorted")
		}
		prevEnt = v
		nb := r.count(section, 8)
		if r.err == nil && nb == 0 {
			return corruptf(section, "entity %d: empty block table", v)
		}
		table := make([]snapshot.BlockTF, 0, nb)
		prevBlock := int32(-1)
		for j := 0; j < nb; j++ {
			block := int32(r.u32())
			tf := int32(r.u32())
			if r.err != nil {
				return r.err
			}
			if block <= prevBlock || tf <= 0 {
				return corruptf(section, "entity %d: block table not canonical", v)
			}
			prevBlock = block
			table = append(table, snapshot.BlockTF{Block: block, TF: tf})
		}
		got[v] = table
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return corruptf(section, "trailing bytes")
	}
	want := snapshot.ComputeMaxTF(seg.Base, seg.Docs)
	if len(got) != len(want) {
		return corruptf(section, "block maxima disagree with DOCS (entity count %d, derived %d)", len(got), len(want))
	}
	for v, table := range got {
		ref, ok := want[v]
		if !ok || len(ref) != len(table) {
			return corruptf(section, "entity %d: block maxima disagree with DOCS", v)
		}
		for j := range table {
			if table[j] != ref[j] {
				return corruptf(section, "entity %d: block maxima disagree with DOCS", v)
			}
		}
	}
	seg.MaxTF = got
	return nil
}

// ---- conn-memo files ----------------------------------------------

// EncodeConn renders walked connectivity factors — the
// content-addressed (concept, document) → cdrc values behind cdr's
// expensive random-walk factor. Entries are pure functions of graph +
// document content under a fixed engine seed, so a saved entry is
// valid forever: loading them back is what makes a warm open skip
// every random walk the saving process ever performed.
func EncodeConn(keys []uint64, values []float64) []byte {
	var payload writer
	payload.u64(uint64(len(keys)))
	for i, k := range keys {
		payload.u64(k)
		payload.u64(math.Float64bits(values[i]))
	}
	var out writer
	out.bytes([]byte(connMagic))
	out.u16(formatVersion)
	out.u64(uint64(len(payload.buf)))
	out.bytes(payload.buf)
	out.u32(crc32.ChecksumIEEE(payload.buf))
	return out.buf
}

// DecodeConn parses a conn-memo file, streaming each entry to fn.
func DecodeConn(data []byte, fn func(key uint64, value float64)) error {
	const section = "CONN"
	r := &reader{buf: data}
	if string(r.take(4)) != connMagic {
		return fmt.Errorf("%w: bad conn-memo magic", ErrCorrupt)
	}
	if v := r.u16(); r.err == nil && v != formatVersion {
		return fmt.Errorf("%w: conn-memo format version %d (this build reads %d)", ErrVersionMismatch, v, formatVersion)
	}
	n := r.u64()
	if r.err != nil || n > uint64(r.remaining()) {
		return corruptf(section, "length exceeds file")
	}
	payload := r.take(int(n))
	sum := r.u32()
	if r.err != nil {
		return corruptf(section, "truncated")
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return corruptf(section, "CRC mismatch")
	}
	if r.remaining() != 0 {
		return corruptf(section, "trailing bytes")
	}
	pr := &reader{buf: payload}
	n64 := pr.u64()
	// Overflow-safe: bound the count by remaining/16 first, so n64*16
	// cannot wrap (a crafted huge count must not pass the size check).
	if pr.err != nil || n64 > uint64(pr.remaining())/16 || uint64(pr.remaining()) != n64*16 {
		return corruptf(section, "entry count disagrees with payload size")
	}
	count := int(n64)
	var prev uint64
	for i := 0; i < count; i++ {
		k := pr.u64()
		v := math.Float64frombits(pr.u64())
		if i > 0 && k <= prev {
			return corruptf(section, "keys not sorted")
		}
		prev = k
		fn(k, v)
	}
	return nil
}

// ---- little-endian primitives -------------------------------------

type writer struct{ buf []byte }

func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)   { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes a byte slice with sticky error semantics: after the
// first violation every accessor returns zero values, so decoders can
// parse a whole structure and check r.err once per loop.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated input", ErrCorrupt)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > r.remaining() {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || uint64(n) > uint64(r.remaining()) {
		r.fail()
		return ""
	}
	return string(r.take(int(n)))
}

// count reads a u32 element count and validates it against the bytes
// that remain, assuming each element occupies at least minBytes — the
// guard that keeps hostile counts from driving huge allocations. A
// violation poisons the reader with a section-scoped error.
func (r *reader) count(section string, minBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(minBytes) > uint64(r.remaining()) {
		r.err = corruptf(section, "element count %d exceeds remaining bytes", n)
		return 0
	}
	return int(n)
}

// nodeList reads a u32-counted list of node IDs, optionally requiring
// strictly ascending (canonical sorted-set) order.
func (r *reader) nodeList(section string, sorted bool) []kg.NodeID {
	n := r.count(section, 4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]kg.NodeID, 0, n)
	prev := kg.NodeID(-1)
	for i := 0; i < n; i++ {
		v := kg.NodeID(r.u32())
		if r.err != nil {
			return nil
		}
		if v < 0 || (sorted && v <= prev) {
			r.err = corruptf(section, "node list not canonical")
			return nil
		}
		prev = v
		out = append(out, v)
	}
	return out
}
