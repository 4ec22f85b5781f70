package segio

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/snapshot"
)

// sectionRanges parses a valid segment encoding and returns the byte range of each section's payload, keyed by tag.
func sectionRanges(t *testing.T, data []byte) map[string][2]int {
	t.Helper()
	out := make(map[string][2]int)
	off := 6 // magic + version
	for off < len(data) {
		tag := string(data[off : off+4])
		n := int(binary.LittleEndian.Uint64(data[off+4 : off+12]))
		start := off + 12
		out[tag] = [2]int{start, start + n}
		off = start + n + 4 // skip payload + crc
	}
	if off != len(data) {
		t.Fatalf("section walk ended at %d of %d", off, len(data))
	}
	return out
}

// TestCorruptionMatrix drives the corruption table: every damaged
// input yields its typed error — never a panic, never a half-decoded
// segment.
func TestCorruptionMatrix(t *testing.T) {
	valid := EncodeSegment(buildTestSegment(77, 0, 25))
	sections := sectionRanges(t, valid)

	check := func(t *testing.T, data []byte, wantErr error, wantInMsg string) {
		t.Helper()
		seg, err := DecodeSegment(data)
		if seg != nil {
			t.Fatal("corrupt input produced a segment")
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
		if wantInMsg != "" && !strings.Contains(err.Error(), wantInMsg) {
			t.Fatalf("err %q does not name %q", err, wantInMsg)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] = 'X'
		check(t, data, ErrCorrupt, "magic")
	})
	t.Run("future format version", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint16(data[4:6], formatVersion+1)
		check(t, data, ErrVersionMismatch, "version")
	})
	t.Run("empty input", func(t *testing.T) {
		check(t, nil, ErrCorrupt, "")
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must fail with a typed error (and the CRC
		// of a cut section must catch the loss even at section-aligned
		// cuts, where no read runs out of bytes).
		for cut := 0; cut < len(valid); cut++ {
			seg, err := DecodeSegment(valid[:cut])
			if seg != nil || err == nil {
				t.Fatalf("truncation at %d: seg=%v err=%v", cut, seg, err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		check(t, append(append([]byte(nil), valid...), 0), ErrCorrupt, "trailing")
	})
	for _, tag := range segmentSections {
		t.Run("flipped byte in "+tag, func(t *testing.T) {
			r := sections[tag]
			if r[0] == r[1] {
				t.Skipf("section %s empty in sample", tag)
			}
			// Flip one byte at the start, middle, and end of the payload;
			// the section CRC must catch each.
			for _, pos := range []int{r[0], (r[0] + r[1]) / 2, r[1] - 1} {
				data := append([]byte(nil), valid...)
				data[pos] ^= 0x40
				check(t, data, ErrCorrupt, tag)
			}
		})
	}
	t.Run("section length overflow", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(data[10:18], 1<<60)
		check(t, data, ErrCorrupt, "length")
	})
}

// TestConnCorruption is the corruption matrix for conn-memo files.
func TestConnCorruption(t *testing.T) {
	valid := EncodeConn([]uint64{1, 2, 3}, []float64{0.1, 0.2, 0.3})
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'x'; return b }, ErrCorrupt},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], connVersion+1)
			return b
		}, ErrVersionMismatch},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-6] ^= 1; return b }, ErrCorrupt},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }, ErrCorrupt},
		{"trailing", func(b []byte) []byte { return append(b, 1) }, ErrCorrupt},
		{"unsorted keys", func(b []byte) []byte { return EncodeConn([]uint64{3, 1}, []float64{1, 2}) }, ErrCorrupt},
		{"overflowing entry count", func(b []byte) []byte {
			// A count chosen so that count*16 wraps to exactly the
			// remaining payload size (0). The size check must use
			// overflow-safe arithmetic and reject it up front.
			var payload writer
			payload.u64(1 << 60)
			var out writer
			out.bytes([]byte(connMagic))
			out.u16(connVersion)
			out.u64(uint64(len(payload.buf)))
			out.bytes(payload.buf)
			out.u32(crc32.ChecksumIEEE(payload.buf))
			return out.buf
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			delivered := 0
			err := DecodeConn(data, func(uint64, float64) { delivered++ })
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// Size/header violations must be rejected before any entry
			// streams to the callback (ordering violations necessarily
			// deliver the prefix — the caller stages for that reason).
			if tc.name == "overflowing entry count" && delivered != 0 {
				t.Fatalf("%d fabricated entries delivered", delivered)
			}
		})
	}
}

// TestDocsEntitiesMatchFrequencies: a DOCS record's Entities must be
// distinct and name exactly its EntityFreq keys — postings and block
// maxima derive from the one, document frequencies and term weights
// from the other. A CRC-valid record where they disagree is corrupt.
func TestDocsEntitiesMatchFrequencies(t *testing.T) {
	seg := buildTestSegment(77, 0, 25)
	for name, mutate := range map[string]func(d *snapshot.DocRecord){
		"duplicated entity": func(d *snapshot.DocRecord) {
			d.Entities = append(d.Entities, d.Entities[0])
		},
		"entity missing from frequencies": func(d *snapshot.DocRecord) {
			d.EntityFreq = map[kg.NodeID]int{}
			for _, v := range d.Entities[1:] {
				d.EntityFreq[v] = 1
			}
		},
		"frequency without entity": func(d *snapshot.DocRecord) {
			d.Entities = d.Entities[1:]
		},
		"entity swapped for another": func(d *snapshot.DocRecord) {
			d.Entities = append([]kg.NodeID{d.Entities[0] + 1000}, d.Entities[1:]...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			docs := append([]snapshot.DocRecord(nil), seg.Docs...)
			d := &docs[3]
			d.Entities = append([]kg.NodeID(nil), d.Entities...)
			mutate(d)
			bad := snapshot.BuildSegment(seg.Base, docs, append([]corpus.Document(nil), seg.Articles...))
			got, err := DecodeSegment(EncodeSegment(bad))
			if got != nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "DOCS: doc 3") {
				t.Fatalf("decoded=%v err=%v, want DOCS corruption at doc 3", got != nil, err)
			}
		})
	}
}
