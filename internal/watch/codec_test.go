package watch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"ncexplorer/internal/segio"
)

func crc32ieee(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// restamp recomputes the trailing CRC after a deliberate mutation.
func restamp(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

// populated builds a registry with representative durable state:
// two watchlists, one with a ring and a mid-ring webhook cursor.
func populated(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(Options{AlertBuffer: 8})
	d1, err := r.Register(Definition{
		Name:       "politics watch",
		Concepts:   []string{"politics", "economy"},
		Sources:    []string{"wire", "blog"},
		MinScore:   0.25,
		WebhookURL: "http://example/hook",
		CreatedGen: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(Definition{Name: "empty"}); err != nil {
		t.Fatal(err)
	}
	r.Publish(d1.ID, 8, []Article{art(3, "first"), art(4, "second")})
	r.Publish(d1.ID, 9, []Article{art(5, "third")})
	r.ackDelivery(d1.ID, 2, true)
	return r
}

func TestCodecRoundTrip(t *testing.T) {
	r := populated(t)
	data := r.Encode()
	if data == nil {
		t.Fatal("Encode returned nil for populated registry")
	}
	r2 := NewRegistry(Options{AlertBuffer: 8})
	if err := r2.Load(data); err != nil {
		t.Fatal(err)
	}
	// Durable state is identical: defs, seqs, cursors, rings.
	defs1, seqs1 := r.List()
	defs2, seqs2 := r2.List()
	if !reflect.DeepEqual(defs1, defs2) || !reflect.DeepEqual(seqs1, seqs2) {
		t.Fatalf("defs/seqs mismatch:\n%v %v\n%v %v", defs1, seqs1, defs2, seqs2)
	}
	for _, d := range defs1 {
		if !reflect.DeepEqual(ring(r, d.ID), ring(r2, d.ID)) {
			t.Fatalf("ring mismatch for %s", d.ID)
		}
		r.mu.Lock()
		ack1 := r.lists[d.ID].ack
		r.mu.Unlock()
		r2.mu.Lock()
		ack2 := r2.lists[d.ID].ack
		r2.mu.Unlock()
		if ack1 != ack2 {
			t.Fatalf("cursor mismatch for %s: %d vs %d", d.ID, ack1, ack2)
		}
	}
	// Canonical: re-encoding reproduces the bytes; a new registration
	// after load continues the ID sequence.
	if !bytes.Equal(data, r2.Encode()) {
		t.Fatal("re-encode differs")
	}
	d3, err := r2.Register(Definition{Name: "later"})
	if err != nil {
		t.Fatal(err)
	}
	if d3.ID != "w000003" {
		t.Fatalf("ID after reload = %q, want w000003", d3.ID)
	}
}

func TestEncodeEmptyIsNil(t *testing.T) {
	r := NewRegistry(Options{})
	if r.Encode() != nil {
		t.Fatal("fresh registry should encode to nil")
	}
	// Register + remove: the ID counter still matters (IDs must not be
	// reused after restart), so the state persists.
	d, _ := r.Register(Definition{})
	r.Remove(d.ID)
	data := r.Encode()
	if data == nil {
		t.Fatal("spent ID counter should persist")
	}
	r2 := NewRegistry(Options{})
	if err := r2.Load(data); err != nil {
		t.Fatal(err)
	}
	if d2, _ := r2.Register(Definition{}); d2.ID != "w000002" {
		t.Fatalf("ID after reload = %q, want w000002", d2.ID)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := populated(t).Encode()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			err := NewRegistry(Options{}).Load(mutated)
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if !errors.Is(err, segio.ErrCorrupt) && !errors.Is(err, segio.ErrVersionMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
		})
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	data := populated(t).Encode()
	// Bump the version field and re-stamp the CRC so only the version
	// check can object.
	data[4]++
	restamp(data)
	err := NewRegistry(Options{}).Load(data)
	if !errors.Is(err, segio.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

func TestDecodeRejectsSemanticCorruption(t *testing.T) {
	// Hand-build states violating semantic invariants, with valid CRCs.
	build := func(f func(w *watchWriter)) []byte {
		w := &watchWriter{}
		w.bytes([]byte(watchMagic))
		w.u16(watchVersion)
		f(w)
		w.u32(crc32ieee(w.buf))
		return w.buf
	}
	oneList := func(nextSeq, ack uint64) []byte {
		return build(func(w *watchWriter) {
			w.u64(2)    // nextID
			w.u32(1)    // one list
			w.str("w1") // ID
			w.str("")   // name
			w.u32(0)    // concepts
			w.u32(0)    // sources
			w.f64(0)    // min score
			w.str("")   // webhook
			w.u64(0)    // created gen
			w.u64(nextSeq)
			w.u64(ack)
			w.u32(0) // ring
		})
	}
	cases := map[string][]byte{
		"cursor past latest": oneList(3, 3),
		"zero next seq":      oneList(0, 0),
		"id counter low": build(func(w *watchWriter) {
			w.u64(1) // nextID below list count + 1
			w.u32(1)
			w.str("w1")
			w.str("")
			w.u32(0)
			w.u32(0)
			w.f64(0)
			w.str("")
			w.u64(0)
			w.u64(1)
			w.u64(0)
			w.u32(0)
		}),
		"unsorted ids": build(func(w *watchWriter) {
			w.u64(3)
			w.u32(2)
			for _, id := range []string{"w2", "w1"} {
				w.str(id)
				w.str("")
				w.u32(0)
				w.u32(0)
				w.f64(0)
				w.str("")
				w.u64(0)
				w.u64(1)
				w.u64(0)
				w.u32(0)
			}
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := NewRegistry(Options{}).Load(data); !errors.Is(err, segio.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}
