package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"ncexplorer/internal/kg"
)

// The fuzz seed corpus lives in testdata/fuzz/<target>/ as real frames
// from the tiny world plus hand-built edge cases. Regenerate with:
//
//	go test ./internal/core -run TestFrameSeedCorpus -update-frame-seeds
var updateFrameSeeds = flag.Bool("update-frame-seeds", false, "rewrite the checked-in partials-frame fuzz seeds")

// framePartials returns real partials from the tiny world: one
// drill-down and one diversity partial per topic concept, the
// diversity shortlist being the concepts the drill-down rows touch.
func framePartials(t testing.TB) ([]DrillDownPartial, []DiversityPartial) {
	t.Helper()
	_, meta, _, e := world(t)
	ctx := context.Background()
	var dds []DrillDownPartial
	var divs []DiversityPartial
	for _, topic := range meta.Topics[:2] {
		q := Query{topic.Concept}
		dd, err := e.DrillDownPartials(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var short []kg.NodeID
		for _, row := range dd.Rows[:min(3, len(dd.Rows))] {
			short = append(short, row.Concepts...)
		}
		div, err := e.DiversityPartials(ctx, q, short, nil)
		if err != nil {
			t.Fatal(err)
		}
		dds, divs = append(dds, dd), append(divs, div)
	}
	return dds, divs
}

// edgePartials are hand-built frames at the format's corners: empty,
// the largest IDs, non-finite cdr bits, empty diversity sets.
func edgePartials() ([]DrillDownPartial, []DiversityPartial) {
	dds := []DrillDownPartial{
		{},
		{Generation: math.MaxUint64, Rows: []DrillDownRow{
			{Doc: 0, Concepts: []kg.NodeID{0}, CDRs: []float64{math.Copysign(0, -1)}},
			{Doc: 200, Concepts: []kg.NodeID{7, 300}, CDRs: []float64{math.Inf(1), math.NaN()}},
			{Doc: math.MaxInt32, Concepts: []kg.NodeID{math.MaxInt32}, CDRs: []float64{1e-300}},
		}},
	}
	divs := []DiversityPartial{
		{},
		{Generation: 3, Sets: [][]kg.NodeID{nil, {1, 2, 900}, nil, {math.MaxInt32}}},
	}
	return dds, divs
}

func TestFrameRoundTrip(t *testing.T) {
	dds, divs := framePartials(t)
	edd, ediv := edgePartials()
	for _, p := range append(dds, edd...) {
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got DrillDownPartial
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		// NaN ≠ NaN, so compare the float columns by their bits.
		if got.Generation != p.Generation || len(got.Rows) != len(p.Rows) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
		for i, row := range p.Rows {
			g := got.Rows[i]
			if g.Doc != row.Doc || !reflect.DeepEqual(g.Concepts, row.Concepts) || len(g.CDRs) != len(row.CDRs) {
				t.Fatalf("row %d: got %+v, want %+v", i, g, row)
			}
			for j := range row.CDRs {
				if math.Float64bits(g.CDRs[j]) != math.Float64bits(row.CDRs[j]) {
					t.Fatalf("row %d cdr %d: bits %x, want %x", i, j, math.Float64bits(g.CDRs[j]), math.Float64bits(row.CDRs[j]))
				}
			}
		}
	}
	for _, p := range append(divs, ediv...) {
		if got := overTheWire[DiversityPartial](t, p); !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
	}
}

// TestFrameDecodeAllocs pins "one allocation per column": a decoded
// drill-down frame costs its rows, concepts and cdrs slices, however
// many rows it holds.
func TestFrameDecodeAllocs(t *testing.T) {
	dds, divs := framePartials(t)
	dd, div := dds[0], divs[0]
	if len(dd.Rows) < 10 {
		t.Fatalf("want a many-row frame, got %d rows", len(dd.Rows))
	}
	ddData, _ := dd.MarshalBinary()
	divData, _ := div.MarshalBinary()
	var p DrillDownPartial
	if n := testing.AllocsPerRun(20, func() { p.UnmarshalBinary(ddData) }); n != 3 {
		t.Errorf("drill-down frame of %d rows: %.0f allocations per decode, want 3", len(dd.Rows), n)
	}
	var q DiversityPartial
	if n := testing.AllocsPerRun(20, func() { q.UnmarshalBinary(divData) }); n != 2 {
		t.Errorf("diversity frame of %d sets: %.0f allocations per decode, want 2", len(div.Sets), n)
	}
}

// frameOf assembles raw frame bytes: header fields then varints.
func frameOf(magic string, version uint16, fields ...uint64) []byte {
	b := append([]byte(magic), 0, 0)
	binary.LittleEndian.PutUint16(b[4:], version)
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestFrameRejectsNonCanonical(t *testing.T) {
	cdr := func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5)) }
	valid := cdr(frameOf(drillDownMagic, frameVersion, 1, 1, 1, 5, 1, 9))
	var ok DrillDownPartial
	if err := ok.UnmarshalBinary(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	cases := []struct {
		name    string
		data    []byte
		div     bool
		version bool
	}{
		{name: "empty", data: nil},
		{name: "bad magic", data: frameOf("NCXX", frameVersion, 1, 0, 0)},
		{name: "diversity magic on drill-down", data: frameOf(diversityMagic, frameVersion, 1, 0, 0)},
		{name: "future version", data: frameOf(drillDownMagic, frameVersion+1, 1, 0, 0), version: true},
		{name: "truncated header", data: frameOf(drillDownMagic, frameVersion)},
		{name: "truncated cdr", data: valid[:len(valid)-1]},
		{name: "trailing byte", data: append(append([]byte(nil), valid...), 0)},
		{name: "non-minimal varint", data: append(frameOf(drillDownMagic, frameVersion), 0x81, 0x00, 0, 0)},
		{name: "row count beyond bytes", data: frameOf(drillDownMagic, frameVersion, 1, 1000, 1000)},
		{name: "more rows than concepts", data: cdr(frameOf(drillDownMagic, frameVersion, 1, 2, 1, 1, 1, 9))},
		{name: "zero document gap", data: cdr(cdr(frameOf(drillDownMagic, frameVersion, 1, 2, 2, 1, 1, 9, 0, 1, 9)))},
		{name: "document beyond int32", data: cdr(frameOf(drillDownMagic, frameVersion, 1, 1, 1, math.MaxInt32+2, 1, 9))},
		{name: "row without concepts", data: cdr(frameOf(drillDownMagic, frameVersion, 1, 1, 1, 5, 0, 9))},
		{name: "concepts short of header", data: cdr(cdr(frameOf(drillDownMagic, frameVersion, 1, 1, 2, 5, 1, 9)))},
		{name: "pairs without rows", data: cdr(frameOf(drillDownMagic, frameVersion, 1, 0, 1, 9))},
		{name: "concept beyond int32", data: cdr(frameOf(drillDownMagic, frameVersion, 1, 1, 1, 5, 1, math.MaxInt32+1))},
		{name: "diversity: drill-down magic", data: frameOf(drillDownMagic, frameVersion, 1, 0, 0), div: true},
		{name: "diversity: future version", data: frameOf(diversityMagic, 9, 1, 0, 0), div: true, version: true},
		{name: "diversity: set beyond entities", data: frameOf(diversityMagic, frameVersion, 1, 1, 1, 2, 4), div: true},
		{name: "diversity: entities short of header", data: frameOf(diversityMagic, frameVersion, 1, 1, 2, 1, 4, 0), div: true},
		{name: "diversity: entities without sets", data: frameOf(diversityMagic, frameVersion, 1, 0, 1, 4), div: true},
		{name: "diversity: entity beyond int32", data: frameOf(diversityMagic, frameVersion, 1, 1, 1, 1, math.MaxInt32+1), div: true},
		{name: "diversity: trailing byte", data: frameOf(diversityMagic, frameVersion, 1, 1, 0, 0, 7), div: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.div {
				p := DiversityPartial{Generation: 77}
				err = p.UnmarshalBinary(tc.data)
				if err != nil && p.Generation != 77 {
					t.Fatal("failed decode modified its target")
				}
			} else {
				p := DrillDownPartial{Generation: 77}
				err = p.UnmarshalBinary(tc.data)
				if err != nil && p.Generation != 77 {
					t.Fatal("failed decode modified its target")
				}
			}
			want := ErrFrame
			if tc.version {
				want = ErrFrameVersion
			}
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
		})
	}
}

func TestFrameMarshalRejectsMalformedRows(t *testing.T) {
	for _, p := range []DrillDownPartial{
		{Rows: []DrillDownRow{{Doc: 4, Concepts: []kg.NodeID{1}, CDRs: []float64{1}}, {Doc: 4, Concepts: []kg.NodeID{2}, CDRs: []float64{1}}}},
		{Rows: []DrillDownRow{{Doc: 4}}},
		{Rows: []DrillDownRow{{Doc: 4, Concepts: []kg.NodeID{1, 2}, CDRs: []float64{1}}}},
		{Rows: []DrillDownRow{{Doc: -1, Concepts: []kg.NodeID{1}, CDRs: []float64{1}}}},
	} {
		if _, err := p.MarshalBinary(); !errors.Is(err, ErrFrame) {
			t.Fatalf("MarshalBinary(%+v) = %v, want ErrFrame", p, err)
		}
	}
}

// TestFrameSeedCorpus keeps the checked-in fuzz seeds honest (each is a
// canonical frame); with -update-frame-seeds it rewrites them first.
func TestFrameSeedCorpus(t *testing.T) {
	dirs := map[string]string{
		"dd":  filepath.Join("testdata", "fuzz", "FuzzDrillDownPartialFrame"),
		"div": filepath.Join("testdata", "fuzz", "FuzzDiversityPartialFrame"),
	}
	if *updateFrameSeeds {
		dds, divs := framePartials(t)
		edd, ediv := edgePartials()
		write := func(dir, name string, data []byte) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range append(dds, edd...) {
			data, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			write(dirs["dd"], fmt.Sprintf("seed-%d", i), data)
		}
		for i, p := range append(divs, ediv...) {
			data, _ := p.MarshalBinary()
			write(dirs["div"], fmt.Sprintf("seed-%d", i), data)
		}
	}
	for kind, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("seed corpus %s missing (%v); run with -update-frame-seeds", dir, err)
		}
		for _, ent := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			data := seedBytes(t, raw)
			var re []byte
			if kind == "dd" {
				var p DrillDownPartial
				if err := p.UnmarshalBinary(data); err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				re, _ = p.MarshalBinary()
			} else {
				var p DiversityPartial
				if err := p.UnmarshalBinary(data); err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				re, _ = p.MarshalBinary()
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("%s/%s: not canonical", dir, ent.Name())
			}
		}
	}
}

// seedBytes extracts the []byte value of a "go test fuzz v1" file.
func seedBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	const head = "go test fuzz v1\n[]byte("
	s := string(bytes.TrimSpace(raw))
	if len(s) < len(head)+1 || s[:len(head)] != head || s[len(s)-1] != ')' {
		t.Fatalf("not a fuzz seed file: %.60q", s)
	}
	v, err := strconv.Unquote(s[len(head) : len(s)-1])
	if err != nil {
		t.Fatal(err)
	}
	return []byte(v)
}

// checkFrameError asserts the decode-error contract: every failure is
// one of the two sentinel kinds.
func checkFrameError(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("untyped frame error: %v", err)
	}
}

// FuzzDrillDownPartialFrame: arbitrary bytes never panic the NCDP
// decoder, every failure is typed, and every accepted input is the
// canonical encoding of what it decoded to.
func FuzzDrillDownPartialFrame(f *testing.F) {
	f.Add([]byte(drillDownMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p DrillDownPartial
		if err := p.UnmarshalBinary(data); err != nil {
			checkFrameError(t, err)
			return
		}
		re, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode accepted non-canonical input:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDiversityPartialFrame: the NCDV decoder upholds the same
// contract.
func FuzzDiversityPartialFrame(f *testing.F) {
	f.Add([]byte(diversityMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p DiversityPartial
		if err := p.UnmarshalBinary(data); err != nil {
			checkFrameError(t, err)
			return
		}
		re, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode accepted non-canonical input:\n in: %x\nout: %x", data, re)
		}
	})
}
