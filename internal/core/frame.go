package core

// The partials frame: the binary encoding of the two drill-down scatter
// answers (DrillDownPartial, DiversityPartial) on the router↔shard hop.
//
// Layout, little-endian, every varint minimal:
//
//	magic      4 bytes   "NCDP" (drill-down rows) or "NCDV" (diversity sets)
//	version    u16       frameVersion
//	generation uvarint
//
//	NCDP: rows uvarint, pairs uvarint (Σ concepts over rows), then per row
//	      doc gap uvarint (doc − previous doc, previous = −1: ≥ 1, so
//	      documents are strictly ascending), n uvarint (≥ 1),
//	      n × concept uvarint, n × cdr as raw IEEE-754 bits (u64)
//	NCDV: sets uvarint, entities uvarint (Σ set sizes), then per set
//	      n uvarint, n × entity uvarint
//
// cdr travels as its exact bit pattern, so a decoded partial replays the
// same float additions the shard would have: the frame changes the cost
// of the hop and no answer. Decoding allocates one slice per column
// (rows, concepts, cdrs; sets, entities) and sub-slices it per row. The
// decoder accepts only the canonical encoding — minimal varints, counts
// that fit the remaining bytes and add up, ascending documents, no
// trailing bytes — so every accepted frame re-encodes to its own bytes,
// and arbitrary input yields ErrFrame or ErrFrameVersion, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ncexplorer/internal/kg"
)

// PartialsContentType is the media type of a partials frame response.
const PartialsContentType = "application/x-ncexplorer-partials"

const (
	drillDownMagic = "NCDP"
	diversityMagic = "NCDV"
	frameVersion   = 1
	// frameHeader is magic plus version.
	frameHeader = 6
)

var (
	// ErrFrame marks bytes that are not a well-formed partials frame.
	ErrFrame = errors.New("core: malformed partials frame")
	// ErrFrameVersion marks a partials frame whose version this build
	// does not read.
	ErrFrameVersion = errors.New("core: unsupported partials frame version")
)

// MarshalBinary encodes the partial as an NCDP frame. Rows must be in
// strictly ascending document order, each with at least one concept
// and one cdr per concept — the shape DrillDownPartials produces.
func (p DrillDownPartial) MarshalBinary() ([]byte, error) {
	pairs := 0
	prev := int32(-1)
	for _, row := range p.Rows {
		if row.Doc <= prev || len(row.Concepts) == 0 || len(row.CDRs) != len(row.Concepts) {
			return nil, fmt.Errorf("%w: row for document %d after %d with %d concepts and %d cdrs",
				ErrFrame, row.Doc, prev, len(row.Concepts), len(row.CDRs))
		}
		prev = row.Doc
		pairs += len(row.Concepts)
	}
	b := make([]byte, 0, frameHeader+3*binary.MaxVarintLen64+len(p.Rows)*4+pairs*11)
	b = appendFrameHeader(b, drillDownMagic, p.Generation)
	b = binary.AppendUvarint(b, uint64(len(p.Rows)))
	b = binary.AppendUvarint(b, uint64(pairs))
	prev = -1
	for _, row := range p.Rows {
		b = binary.AppendUvarint(b, uint64(int64(row.Doc)-int64(prev)))
		prev = row.Doc
		b = binary.AppendUvarint(b, uint64(len(row.Concepts)))
		for _, c := range row.Concepts {
			b = binary.AppendUvarint(b, uint64(c))
		}
		for _, v := range row.CDRs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// UnmarshalBinary decodes an NCDP frame into p, replacing its contents.
func (p *DrillDownPartial) UnmarshalBinary(data []byte) error {
	r := frameReader{buf: data}
	gen := r.header(drillDownMagic)
	nrows := r.count(2)
	npairs := r.count(9)
	if r.err == nil && nrows > npairs {
		r.fail("%d rows carry only %d concepts", nrows, npairs)
	}
	if r.err != nil {
		return r.err
	}
	out := DrillDownPartial{Generation: gen}
	used := 0
	if nrows > 0 {
		out.Rows = make([]DrillDownRow, nrows)
		concepts := make([]kg.NodeID, npairs)
		cdrs := make([]float64, npairs)
		prev := int64(-1)
		for i := range out.Rows {
			gap := r.uvarint()
			doc := prev + int64(gap)
			n := r.uvarint()
			switch {
			case r.err != nil:
				return r.err
			case gap == 0 || gap > math.MaxInt32 || doc > math.MaxInt32:
				return r.fail("row %d: document gap %d after %d", i, gap, prev)
			case n == 0 || n > uint64(npairs-used):
				return r.fail("row %d: %d concepts with %d left", i, n, npairs-used)
			}
			prev = doc
			row := &out.Rows[i]
			row.Doc = int32(doc)
			end := used + int(n)
			row.Concepts = concepts[used:end:end]
			row.CDRs = cdrs[used:end:end]
			used = end
			for j := range row.Concepts {
				row.Concepts[j] = r.nodeID()
			}
			for j := range row.CDRs {
				row.CDRs[j] = math.Float64frombits(r.u64())
			}
		}
	}
	if r.err == nil && used != npairs {
		r.fail("rows carry %d concepts, header says %d", used, npairs)
	}
	if err := r.finish(); err != nil {
		return err
	}
	*p = out
	return nil
}

// MarshalBinary encodes the partial as an NCDV frame.
func (p DiversityPartial) MarshalBinary() ([]byte, error) {
	ents := 0
	for _, set := range p.Sets {
		ents += len(set)
	}
	b := make([]byte, 0, frameHeader+3*binary.MaxVarintLen64+len(p.Sets)+ents*3)
	b = appendFrameHeader(b, diversityMagic, p.Generation)
	b = binary.AppendUvarint(b, uint64(len(p.Sets)))
	b = binary.AppendUvarint(b, uint64(ents))
	for _, set := range p.Sets {
		b = binary.AppendUvarint(b, uint64(len(set)))
		for _, v := range set {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b, nil
}

// UnmarshalBinary decodes an NCDV frame into p, replacing its contents.
// Empty sets decode as nil.
func (p *DiversityPartial) UnmarshalBinary(data []byte) error {
	r := frameReader{buf: data}
	gen := r.header(diversityMagic)
	nsets := r.count(1)
	nents := r.count(1)
	if r.err != nil {
		return r.err
	}
	out := DiversityPartial{Generation: gen}
	used := 0
	if nsets > 0 {
		out.Sets = make([][]kg.NodeID, nsets)
		ents := make([]kg.NodeID, nents)
		for i := range out.Sets {
			n := r.uvarint()
			if r.err == nil && n > uint64(nents-used) {
				r.fail("set %d: %d entities with %d left", i, n, nents-used)
			}
			if r.err != nil {
				return r.err
			}
			if n == 0 {
				continue
			}
			end := used + int(n)
			set := ents[used:end:end]
			used = end
			for j := range set {
				set[j] = r.nodeID()
			}
			out.Sets[i] = set
		}
	}
	if r.err == nil && used != nents {
		r.fail("sets carry %d entities, header says %d", used, nents)
	}
	if err := r.finish(); err != nil {
		return err
	}
	*p = out
	return nil
}

func appendFrameHeader(b []byte, magic string, gen uint64) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, frameVersion)
	return binary.AppendUvarint(b, gen)
}

// frameReader decodes a frame front to back. The first failure sticks:
// later reads return zero values, so decoders check err at the points
// where a zero would be misread.
type frameReader struct {
	buf []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (at byte %d)", ErrFrame, fmt.Sprintf(format, args...), r.off)
	}
	return r.err
}

// header checks the magic and version and returns the generation.
func (r *frameReader) header(magic string) uint64 {
	if len(r.buf) < frameHeader || string(r.buf[:4]) != magic {
		r.fail("bad magic, want %q", magic)
		return 0
	}
	if v := binary.LittleEndian.Uint16(r.buf[4:frameHeader]); v != frameVersion {
		r.err = fmt.Errorf("%w: %s version %d (this build reads %d)", ErrFrameVersion, magic, v, frameVersion)
		return 0
	}
	r.off = frameHeader
	return r.uvarint()
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail("non-minimal varint")
		return 0
	}
	r.off += n
	return v
}

// count reads an element count whose elements each occupy at least
// minBytes of what remains, so a hostile count can never size an
// allocation beyond the frame itself.
func (r *frameReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64((len(r.buf)-r.off)/minBytes) {
		r.fail("count %d exceeds the remaining %d bytes", v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

func (r *frameReader) nodeID() kg.NodeID {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("node ID %d out of range", v)
		return 0
	}
	return kg.NodeID(v)
}

func (r *frameReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("truncated cdr")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// finish reports the sticky error, or trailing bytes after a complete
// frame.
func (r *frameReader) finish() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}
