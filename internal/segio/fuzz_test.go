package segio

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fuzz seed corpus lives in testdata/*.ncseg as real encoded
// segments (plus testdata/*.nccm conn files). Regenerate with:
//
//	go test ./internal/segio -run TestSeedCorpus -update-seeds
var updateSeeds = flag.Bool("update-seeds", false, "rewrite the checked-in fuzz seed corpus")

// seedSpecs pins the segments the corpus is generated from.
var seedSpecs = []struct {
	seed uint64
	base int32
	n    int
}{{11, 0, 1}, {12, 0, 24}, {13, 4096, 60}}

// TestSeedCorpus keeps the checked-in corpus honest: every seed file
// must decode cleanly and re-encode to its own bytes; with
// -update-seeds it rewrites the files from seedSpecs first.
func TestSeedCorpus(t *testing.T) {
	if *updateSeeds {
		for i, spec := range seedSpecs {
			data := EncodeSegment(buildTestSegment(spec.seed, spec.base, spec.n))
			name := filepath.Join("testdata", fmt.Sprintf("seed-segment-%d.ncseg", i))
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		conn := EncodeConn([]uint64{3, 9, 1 << 33}, []float64{0.25, 1, 0.125})
		if err := os.WriteFile(filepath.Join("testdata", "seed-conn-0.nccm"), conn, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, conns := seedCorpus(t)
	if len(segs) == 0 || len(conns) == 0 {
		t.Fatal("seed corpus missing; run with -update-seeds to regenerate")
	}
	for name, data := range segs {
		seg, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(EncodeSegment(seg), data) {
			t.Fatalf("%s: not canonical", name)
		}
	}
	for name, data := range conns {
		if err := DecodeConn(data, func(uint64, float64) {}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// seedCorpus loads the checked-in seed files.
func seedCorpus(t testing.TB) (segs, conns map[string][]byte) {
	t.Helper()
	segs, conns = map[string][]byte{}, map[string][]byte{}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(ent.Name(), SegmentExt):
			segs[ent.Name()] = data
		case strings.HasSuffix(ent.Name(), ConnExt):
			conns[ent.Name()] = data
		}
	}
	return segs, conns
}

// typedDecodeError asserts the decode-error contract: every failure is
// one of the two sentinel kinds, never anything else.
func typedDecodeError(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("untyped decode error: %v", err)
	}
}

// FuzzDecodeSegment: arbitrary bytes never panic the decoder and
// always yield either a valid segment or a typed error.
func FuzzDecodeSegment(f *testing.F) {
	segs, _ := seedCorpus(f)
	for _, data := range segs {
		f.Add(data)
		// A few deterministic mutations help the engine find the
		// interesting cliffs fast.
		if len(data) > 40 {
			trunc := data[:len(data)*2/3]
			f.Add(trunc)
			flip := append([]byte(nil), data...)
			flip[30] ^= 0xFF
			f.Add(flip)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("NCSG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		if err != nil {
			if seg != nil {
				t.Fatal("error with non-nil segment")
			}
			typedDecodeError(t, err)
			return
		}
		// A decoded segment must be internally usable: re-encoding it
		// must not panic and must decode again.
		re := EncodeSegment(seg)
		if _, err := DecodeSegment(re); err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
	})
}

// FuzzSegmentRoundTrip: the encoding is canonical — any accepted input
// IS the canonical encoding of its segment, and encode∘decode is the
// identity on it (so encode/decode/re-encode is byte-stable).
func FuzzSegmentRoundTrip(f *testing.F) {
	segs, _ := seedCorpus(f)
	for _, data := range segs {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		if err != nil {
			typedDecodeError(t, err)
			return
		}
		enc := EncodeSegment(seg)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode accepted non-canonical input:\n in: %x\nout: %x", data, enc)
		}
		seg2, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v", err)
		}
		if !bytes.Equal(EncodeSegment(seg2), enc) {
			t.Fatal("second round trip not byte-stable")
		}
	})
}

// FuzzDecodeConn: the conn-memo decoder upholds the same contract.
func FuzzDecodeConn(f *testing.F) {
	_, conns := seedCorpus(f)
	for _, data := range conns {
		f.Add(data)
	}
	f.Add([]byte("NCCM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []uint64
		var values []float64
		err := DecodeConn(data, func(k uint64, v float64) {
			keys = append(keys, k)
			values = append(values, v)
		})
		if err != nil {
			typedDecodeError(t, err)
			return
		}
		if !bytes.Equal(EncodeConn(keys, values), data) {
			t.Fatal("conn decode accepted non-canonical input")
		}
	})
}

// FuzzParseManifest: arbitrary bytes never panic the manifest parser,
// every rejection is typed, and every accepted manifest names only
// plain segment, conn and watch files inside the snapshot directory —
// what a replica relies on before it fetches, reuses or collects a
// referenced file. testdata/seed-tiny.manifest is the MANIFEST of a
// tiny world's Save (e.g. boot `ncserver -scale tiny -data-dir DIR`,
// stop it, and copy DIR/MANIFEST).
func FuzzParseManifest(f *testing.F) {
	tiny, err := os.ReadFile(filepath.Join("testdata", "seed-tiny.manifest"))
	if err != nil {
		f.Fatal(err)
	}
	m, err := ParseManifest(tiny)
	if err != nil {
		f.Fatalf("seed manifest rejected: %v", err)
	}
	f.Add(tiny)
	add := func(mutate func(*Manifest)) {
		v := *m
		v.Segments = append([]SegmentRef(nil), m.Segments...)
		mutate(&v)
		data, err := json.Marshal(&v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A shard snapshot with a conn companion and a watch file exercises
	// every reference kind; the rest are the references a replica once
	// mistook for already-fetched files.
	add(func(v *Manifest) {
		v.Segments[0].Base = 4096
		v.Segments[0].Conn = "segconn-0000004096-0000226-0badc0de.nccm"
		v.WatchFile = "watch-01234567.ncwl"
		v.Shard = &ShardMeta{Index: 1, Count: 2, RemoteDocs: 200}
	})
	for _, bad := range []string{"..", ".", ManifestName, "x.nccm", "/", "../x.ncseg"} {
		add(func(v *Manifest) { v.Segments[0].File = bad })
	}
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil manifest")
			}
			typedDecodeError(t, err)
			return
		}
		plain := func(name, ext string) {
			if strings.ContainsRune(name, '/') || !strings.HasSuffix(name, ext) {
				t.Fatalf("accepted manifest references %q, not a plain %s file", name, ext)
			}
		}
		for _, ref := range m.Segments {
			plain(ref.File, SegmentExt)
			if ref.Conn != "" {
				plain(ref.Conn, ConnExt)
			}
		}
		if m.ConnFile != "" {
			plain(m.ConnFile, ConnExt)
		}
		if m.WatchFile != "" {
			plain(m.WatchFile, WatchExt)
		}
	})
}
