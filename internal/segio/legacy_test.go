package segio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/snapshot"
)

// testdata/legacy-v3-segment-{0,1,2}.ncseg are genuine v3 files, written
// by the v3 encoder from seedSpecs (they were the seed corpus while v3
// was current). They carry TEXT, POST and BMAX sections after DOCS and
// ARTS.

func legacyFixture(t testing.TB, i int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("legacy-v3-segment-%d.ncseg", i)))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != legacyVersion {
		t.Fatalf("fixture %d is version %d, want %d", i, v, legacyVersion)
	}
	return data
}

// withSection returns a copy of a segment file with one section's
// payload replaced, its length and CRC fixed up: damage no checksum
// can see.
func withSection(t *testing.T, data []byte, tag string, payload []byte) []byte {
	t.Helper()
	r, ok := sectionRanges(t, data)[tag]
	if !ok {
		t.Fatalf("no %s section", tag)
	}
	var out writer
	out.bytes(data[:r[0]-8])
	out.u64(uint64(len(payload)))
	out.bytes(payload)
	out.u32(crc32.ChecksumIEEE(payload))
	out.bytes(data[r[1]+4:])
	return out.buf
}

// entityTable encodes a v3 POST or BMAX payload: entities ascending,
// each with its rows of u32 fields.
func entityTable(rows map[kg.NodeID][][]uint32) []byte {
	ents := make([]kg.NodeID, 0, len(rows))
	for v := range rows {
		ents = append(ents, v)
	}
	slices.Sort(ents)
	var w writer
	w.u32(uint32(len(rows)))
	for _, v := range ents {
		w.u32(uint32(v))
		w.u32(uint32(len(rows[v])))
		for _, row := range rows[v] {
			for _, f := range row {
				w.u32(f)
			}
		}
	}
	return w.buf
}

// TestLegacyV3Fixtures: each genuine v3 file decodes to the segment it
// was written from (the same Docs, Articles, EntDocs and MaxTF the v3
// decoder produced), opens through the manifest-checked reader, and
// re-encodes to exactly the v4 seed of the same spec.
func TestLegacyV3Fixtures(t *testing.T) {
	dir := t.TempDir()
	for i, spec := range seedSpecs {
		data := legacyFixture(t, i)
		seg, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		segmentsEquivalent(t, buildTestSegment(spec.seed, spec.base, spec.n), seg)
		v4, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("seed-segment-%d.ncseg", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeSegment(seg), v4) {
			t.Fatalf("fixture %d: re-encoding is not the v4 seed", i)
		}
		ref := SegmentRef{File: fmt.Sprintf("legacy-%d.ncseg", i), Base: spec.base, Docs: spec.n, CRC: crc32.ChecksumIEEE(data)}
		if err := WriteFileAtomic(dir, ref.File, data); err != nil {
			t.Fatal(err)
		}
		got, n, err := ReadSegmentFile(dir, ref)
		if err != nil || n != len(data) {
			t.Fatalf("fixture %d through the manifest path: n=%d err=%v", i, n, err)
		}
		segmentsEquivalent(t, seg, got)
	}
}

// TestLegacyPostingsDerived: a v3 file's POST section is not trusted.
// One that claims a document mentions an entity its DOCS record lacks
// — or drops every posting — still decodes to the postings DOCS
// implies.
func TestLegacyPostingsDerived(t *testing.T) {
	legacy := legacyFixture(t, 1)
	want, err := DecodeSegment(legacy)
	if err != nil {
		t.Fatal(err)
	}
	absent := kg.NodeID(0)
	for slices.Contains(want.Docs[0].Entities, absent) {
		absent++
	}
	for name, post := range map[string][]byte{
		"phantom mention": entityTable(map[kg.NodeID][][]uint32{absent: {{uint32(want.Base)}}}),
		"no postings":     entityTable(nil),
	} {
		t.Run(name, func(t *testing.T) {
			got, err := DecodeSegment(withSection(t, legacy, "POST", post))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.EntDocs, want.EntDocs) {
				t.Fatal("postings taken from POST, not derived from DOCS")
			}
		})
	}
}

// TestBlockMaxDisagreement: a v3 file's BMAX section is derivable from
// DOCS and is not trusted. A checksummed table with a wrong maximum
// (which would skew pruning ceilings) decodes to the block maxima DOCS
// implies.
func TestBlockMaxDisagreement(t *testing.T) {
	legacy := legacyFixture(t, 2)
	seg, err := DecodeSegment(legacy)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot.ComputeMaxTF(seg.Base, seg.Docs)
	tamper := func(name string, mutate func(map[kg.NodeID][]snapshot.BlockTF)) {
		t.Run(name, func(t *testing.T) {
			tables := snapshot.ComputeMaxTF(seg.Base, seg.Docs)
			mutate(tables)
			rows := map[kg.NodeID][][]uint32{}
			for v, tbl := range tables {
				for _, bt := range tbl {
					rows[v] = append(rows[v], []uint32{uint32(bt.Block), uint32(bt.TF)})
				}
			}
			got, err := DecodeSegment(withSection(t, legacy, "BMAX", entityTable(rows)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.MaxTF, want) {
				t.Fatal("block maxima taken from BMAX, not derived from DOCS")
			}
		})
	}
	tamper("inflated maximum", func(m map[kg.NodeID][]snapshot.BlockTF) {
		for v := range m {
			m[v][0].TF++
			return
		}
	})
	tamper("dropped entity", func(m map[kg.NodeID][]snapshot.BlockTF) {
		for v := range m {
			delete(m, v)
			return
		}
	})
	tamper("extra block", func(m map[kg.NodeID][]snapshot.BlockTF) {
		for v := range m {
			tbl := m[v]
			m[v] = append(tbl, snapshot.BlockTF{Block: tbl[len(tbl)-1].Block + 1, TF: 1})
			return
		}
	})
}
