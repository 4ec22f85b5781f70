package segio

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ncexplorer/internal/corpus"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/snapshot"
	"ncexplorer/internal/xrand"
)

// buildTestSegment synthesizes a structurally realistic segment —
// random entities, frequencies, candidate concepts, articles with gold
// labels — without running the NLP pipeline. Deterministic per seed.
func buildTestSegment(seed uint64, base int32, n int) *snapshot.Segment {
	rnd := xrand.New(seed)
	docs := make([]snapshot.DocRecord, n)
	articles := make([]corpus.Document, n)
	for i := 0; i < n; i++ {
		ne := 1 + int(rnd.Uint64()%5)
		freq := make(map[kg.NodeID]int, ne)
		var ents []kg.NodeID
		for j := 0; j < ne; j++ {
			v := kg.NodeID(rnd.Uint64() % 50)
			if _, dup := freq[v]; dup {
				continue
			}
			ents = append(ents, v)
			freq[v] = 1 + int(rnd.Uint64()%4)
		}
		var cands []kg.NodeID
		for j := 0; j < int(rnd.Uint64()%4); j++ {
			cands = append(cands, kg.NodeID(100+rnd.Uint64()%20))
		}
		pub := int64(1700000000 + rnd.Uint64()%10000000)
		docs[i] = snapshot.DocRecord{
			Source:      corpus.Sources[rnd.Uint64()%uint64(len(corpus.Sources))],
			Entities:    ents,
			EntityFreq:  freq,
			Candidates:  snapshot.SortedCandidates(cands),
			PublishedAt: pub,
		}
		topics := map[kg.NodeID]float64{}
		for j := 0; j < int(rnd.Uint64()%3); j++ {
			topics[kg.NodeID(100+rnd.Uint64()%20)] = float64(rnd.Uint64()%50) / 10
		}
		if len(topics) == 0 {
			topics = nil
		}
		articles[i] = corpus.Document{
			Source:       docs[i].Source,
			PublishedAt:  pub,
			Title:        fmt.Sprintf("Title %d-%d", seed, i),
			Body:         fmt.Sprintf("Body of article %d with some text × unicode ✓ %d", i, rnd.Uint64()),
			Topics:       topics,
			GoldEntities: append([]kg.NodeID(nil), ents...),
			Distractor:   rnd.Uint64()%4 == 0,
		}
	}
	return snapshot.BuildSegment(base, docs, articles)
}

// segmentsEquivalent compares two segments for observable equality:
// raw records, articles, entity postings, and the text index's full
// read surface.
func segmentsEquivalent(t *testing.T, a, b *snapshot.Segment) {
	t.Helper()
	if a.Base != b.Base || a.Len() != b.Len() {
		t.Fatalf("base/len differ: (%d, %d) vs (%d, %d)", a.Base, a.Len(), b.Base, b.Len())
	}
	if !reflect.DeepEqual(a.Docs, b.Docs) {
		t.Fatal("doc records differ")
	}
	if !reflect.DeepEqual(a.Articles, b.Articles) {
		t.Fatal("articles differ")
	}
	if !reflect.DeepEqual(a.EntDocs, b.EntDocs) {
		t.Fatal("entity postings differ")
	}
	if a.Text.NumDocs() != b.Text.NumDocs() || a.Text.TotalLen() != b.Text.TotalLen() ||
		a.Text.AvgDocLen() != b.Text.AvgDocLen() {
		t.Fatal("text index dimensions differ")
	}
	terms := a.Text.Terms()
	if !reflect.DeepEqual(terms, b.Text.Terms()) {
		t.Fatal("text index terms differ")
	}
	for _, term := range terms {
		if !reflect.DeepEqual(a.Text.Postings(term), b.Text.Postings(term)) {
			t.Fatalf("postings for %q differ", term)
		}
		if a.Text.IDF(term) != b.Text.IDF(term) {
			t.Fatalf("IDF for %q differs", term)
		}
		for d := int32(0); d < int32(a.Len()); d++ {
			if a.Text.TFIDF(term, d) != b.Text.TFIDF(term, d) {
				t.Fatalf("TFIDF(%q, %d) differs", term, d)
			}
		}
	}
	for d := int32(0); d < int32(a.Len()); d++ {
		if a.Text.DocLen(d) != b.Text.DocLen(d) {
			t.Fatalf("DocLen(%d) differs", d)
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		base int32
		n    int
	}{
		{1, 0, 1}, {2, 0, 17}, {3, 512, 64}, {4, 100000, 5},
	} {
		enc := EncodeSegment(buildTestSegment(tc.seed, tc.base, tc.n))
		dec, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", tc.seed, err)
		}
		segmentsEquivalent(t, buildTestSegment(tc.seed, tc.base, tc.n), dec)
		re := EncodeSegment(dec)
		if !bytes.Equal(enc, re) {
			t.Fatalf("seed %d: re-encode is not byte-stable", tc.seed)
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	// Map iteration order must never leak into the encoding.
	for i := 0; i < 10; i++ {
		a := EncodeSegment(buildTestSegment(99, 0, 40))
		b := EncodeSegment(buildTestSegment(99, 0, 40))
		if !bytes.Equal(a, b) {
			t.Fatal("two encodings of the same segment differ")
		}
	}
}

func TestConnRoundTrip(t *testing.T) {
	keys := []uint64{1, 7, 1 << 40, math.MaxUint64}
	values := []float64{0, 0.5, -1.25, math.Pi}
	data := EncodeConn(keys, values)
	var gotK []uint64
	var gotV []float64
	if err := DecodeConn(data, func(k uint64, v float64) {
		gotK = append(gotK, k)
		gotV = append(gotV, v)
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotK, keys) || !reflect.DeepEqual(gotV, values) {
		t.Fatalf("conn round trip mismatch: %v %v", gotK, gotV)
	}
	// Empty memo round-trips too.
	if err := DecodeConn(EncodeConn(nil, nil), func(k uint64, v float64) {
		t.Fatal("unexpected entry")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: err = %v, want ErrNoSnapshot", err)
	}
	m := &Manifest{
		Generation: 7,
		NumDocs:    30,
		Segments: []SegmentRef{
			{File: "seg-a.ncseg", Base: 0, Docs: 20, CRC: 123},
			{File: "seg-b.ncseg", Base: 20, Docs: 10, CRC: 456, Conn: "conn-2.nccm"},
		},
		ConnFile:    "conn-1.nccm",
		ConnEntries: 5,
		Engine:      EngineMeta{Tau: 2, Beta: 0.5, Samples: 50, Seed: 42, MaxConceptsPerDoc: 64, AncestorLevels: 1, MaxSegments: 4},
		World:       map[string]string{"scale": "tiny"},
		Stats:       StatsMeta{Docs: 20, LinkNanos: 10, ScoreNanos: 20, PerSource: map[string]SourceStatsMeta{"nyt": {Articles: 20, TotalMentions: 100, LinkedMentions: 80}}},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	// Rewrites are atomic replacements.
	m.Generation = 8
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadManifest(dir); err != nil || got.Generation != 8 {
		t.Fatalf("rewrite: gen=%v err=%v", got.Generation, err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	base := func() *Manifest {
		return &Manifest{
			Generation: 1,
			NumDocs:    10,
			Segments:   []SegmentRef{{File: "a.ncseg", Base: 0, Docs: 10, CRC: 1}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"no segments", func(m *Manifest) { m.Segments = nil }},
		{"gap in bases", func(m *Manifest) { m.Segments[0].Base = 5 }},
		{"docs mismatch", func(m *Manifest) { m.NumDocs = 11 }},
		{"path escape", func(m *Manifest) { m.Segments[0].File = "../evil.ncseg" }},
		{"conn escape", func(m *Manifest) { m.ConnFile = "../evil.nccm" }},
		{"conn without extension", func(m *Manifest) { m.ConnFile = "conn-1" }},
		{"companion escape", func(m *Manifest) { m.Segments[0].Conn = "../evil.nccm" }},
		{"companion absolute path", func(m *Manifest) { m.Segments[0].Conn = "/tmp/conn-1.nccm" }},
		{"companion without extension", func(m *Manifest) { m.Segments[0].Conn = "conn-1.ncseg" }},
		{"watch without extension", func(m *Manifest) { m.WatchFile = "watch-1.nccm" }},
		{"empty segment", func(m *Manifest) { m.Segments[0].Docs = 0; m.NumDocs = 0 }},
		{"segment parent dir", func(m *Manifest) { m.Segments[0].File = ".." }},
		{"segment current dir", func(m *Manifest) { m.Segments[0].File = "." }},
		{"segment is the manifest", func(m *Manifest) { m.Segments[0].File = ManifestName }},
		{"segment is a conn file", func(m *Manifest) { m.Segments[0].File = "x.nccm" }},
		{"segment root", func(m *Manifest) { m.Segments[0].File = "/" }},
	}
	for _, tc := range cases {
		m := base()
		tc.mutate(m)
		if err := WriteManifest(dir, m); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		if _, err := ReadManifest(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestReadSegmentFile(t *testing.T) {
	dir := t.TempDir()
	seg := buildTestSegment(5, 0, 10)
	data := EncodeSegment(seg)
	ref := SegmentRef{Base: 0, Docs: 10, CRC: crc32.ChecksumIEEE(data)}
	ref.File = SegmentFileName(ref.Base, ref.Docs, ref.CRC)
	if err := WriteFileAtomic(dir, ref.File, data); err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadSegmentFile(dir, ref)
	if err != nil || n != len(data) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	segmentsEquivalent(t, seg, got)

	// Manifest CRC pins the exact file: a swapped file fails even
	// though it is internally consistent.
	other := EncodeSegment(buildTestSegment(6, 0, 10))
	if err := WriteFileAtomic(dir, ref.File, other); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSegmentFile(dir, ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped file: err = %v, want ErrCorrupt", err)
	}

	// A reference to a missing file is corruption, with the fs cause
	// visible in the message.
	missing := ref
	missing.File = "seg-gone.ncseg"
	if _, _, err := ReadSegmentFile(dir, missing); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err = %v, want ErrCorrupt", err)
	}
}

// TestCompanionFileNameIsContentSensitive: two conn files of equal
// length share a whole-file CRC32 (each ends with its payload's CRC),
// so companions are named by FNV-1a and must differ.
func TestCompanionFileNameIsContentSensitive(t *testing.T) {
	a := EncodeConn([]uint64{1}, []float64{2})
	b := EncodeConn([]uint64{1}, []float64{3})
	if crc32.ChecksumIEEE(a) != crc32.ChecksumIEEE(b) {
		t.Fatal("same-length conn files no longer share a whole-file CRC32; revisit the naming comment")
	}
	na, nb := CompanionFileName(0, 4, a), CompanionFileName(0, 4, b)
	if na == nb {
		t.Fatalf("different companions share the name %s", na)
	}
	if !strings.HasPrefix(na, CompanionPrefix) || !strings.HasSuffix(na, ConnExt) || na != CompanionFileName(0, 4, a) {
		t.Fatalf("companion name %s is not a stable %s…%s name", na, CompanionPrefix, ConnExt)
	}
}

func TestReadConnFile(t *testing.T) {
	dir := t.TempDir()
	data := EncodeConn([]uint64{1}, []float64{2})
	if err := WriteFileAtomic(dir, "conn-x.nccm", data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConnFile(dir, "conn-x.nccm")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
	if _, err := ReadConnFile(dir, "conn-gone.nccm"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing conn file: err = %v, want ErrCorrupt", err)
	}
}

func TestReadManifestDamage(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("{not json")
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad json: %v", err)
	}
	write(`{"magic":"something-else","format_version":1}`)
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	write(`{"magic":"ncexplorer-snapshot","format_version":99}`)
	if _, err := ReadManifest(dir); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future version: %v", err)
	}
}

func TestWriteAtomicFailures(t *testing.T) {
	// A directory path through a regular file fails for any uid.
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(file, "sub"), "a.ncseg", []byte("data")); err == nil {
		t.Fatal("write into file-as-dir succeeded")
	}
	// Renaming over an existing directory fails after the temp write,
	// exercising the cleanup path; the temp file must not linger.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "taken.ncseg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dir, "taken.ncseg", []byte("data")); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", ent.Name())
		}
	}
}

func TestCollectGarbage(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"keep.ncseg", "keep.nccm", "drop.ncseg", "old.nccm", "unrelated.txt", "x.ncseg.tmp-123"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := &Manifest{Segments: []SegmentRef{{File: "keep.ncseg", Docs: 1, Conn: "keep.nccm"}}}
	removed := CollectGarbage(dir, m)
	want := []string{"drop.ncseg", "old.nccm", "x.ncseg.tmp-123"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	for _, name := range []string{"keep.ncseg", "keep.nccm", "unrelated.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s should survive GC: %v", name, err)
		}
	}
}

// TestCrossVersionOpenMatrix pins the version-evolution contract: a
// well-formed header whose format version differs from this build's
// must always surface as ErrVersionMismatch naming both versions —
// never ErrCorrupt — through both the raw decoder and the
// manifest-checked file reader, whether or not the manifest CRC matches
// the cross-version bytes.
func TestCrossVersionOpenMatrix(t *testing.T) {
	current := EncodeSegment(buildTestSegment(21, 0, 8))

	variants := map[string][]byte{}
	for _, v := range []uint16{1, 2, formatVersion + 1, 99} {
		data := append([]byte(nil), current...)
		data[4] = byte(v)
		data[5] = byte(v >> 8)
		variants[fmt.Sprintf("patched-v%d", v)] = data
	}
	// A genuine previous-version file (written by the v2 encoder before
	// PublishedAt existed), not just a patched header.
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-v2-segment.bin"))
	if err != nil {
		t.Fatal(err)
	}
	variants["genuine-v2"] = legacy

	dir := t.TempDir()
	for name, data := range variants {
		if seg, err := DecodeSegment(data); seg != nil || !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: DecodeSegment err = %v, want ErrVersionMismatch", name, err)
		} else {
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("reads %d", formatVersion)) {
				t.Fatalf("%s: error does not name this build's version: %v", name, err)
			}
		}
		// Through the manifest path, with the CRC matching the
		// cross-version bytes (a whole store from another version) …
		ref := SegmentRef{File: "x.ncseg", Base: 0, Docs: 8, CRC: crc32.ChecksumIEEE(data)}
		if err := WriteFileAtomic(dir, ref.File, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSegmentFile(dir, ref); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: ReadSegmentFile (CRC match) err = %v, want ErrVersionMismatch", name, err)
		}
		// … and with a stale manifest CRC (partially upgraded store): the
		// version sniff must win over the CRC mismatch.
		ref.CRC ^= 0xDEADBEEF
		if _, _, err := ReadSegmentFile(dir, ref); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: ReadSegmentFile (CRC stale) err = %v, want ErrVersionMismatch", name, err)
		}
	}

	// The current version still decodes, and a non-version header problem
	// stays ErrCorrupt.
	if _, err := DecodeSegment(current); err != nil {
		t.Fatalf("current version: %v", err)
	}
	bad := append([]byte(nil), current...)
	bad[0] = 'X'
	if _, err := DecodeSegment(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// Conn-memo files share the version contract.
	conn := EncodeConn([]uint64{1}, []float64{0.5})
	conn[4], conn[5] = 2, 0
	if err := DecodeConn(conn, func(uint64, float64) {}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("conn v2: err = %v, want ErrVersionMismatch", err)
	}
}
