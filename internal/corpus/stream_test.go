package corpus

import (
	"reflect"
	"testing"

	"ncexplorer/internal/kggen"
)

func testStream(t *testing.T, seed uint64) *Stream {
	t.Helper()
	g, meta := kggen.MustGenerate(kggen.Tiny())
	s, err := NewStream(g, meta, Tiny(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamMatchesGenerateBatch: the determinism contract — a stream
// is the batch generator unrolled, for any split into Next/NextBatch
// calls, documents and IDs included.
func TestStreamMatchesGenerateBatch(t *testing.T) {
	g, meta := kggen.MustGenerate(kggen.Tiny())
	const n = 24
	want, err := GenerateBatch(g, meta, Tiny(), 909, n)
	if err != nil {
		t.Fatal(err)
	}

	s := testStream(t, 909)
	var got []Document
	got = append(got, s.Next())
	got = append(got, s.NextBatch(7)...)
	got = append(got, s.Next(), s.Next())
	got = append(got, s.NextBatch(n-len(got))...)
	if s.n != n {
		t.Fatalf("emitted %d, want %d", s.n, n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stream output diverges from GenerateBatch prefix")
	}

	// Distinct seeds give distinct feeds.
	other := testStream(t, 910).NextBatch(4)
	if reflect.DeepEqual(other, want[:4]) {
		t.Fatal("seed 910 reproduced seed 909's stream")
	}
}

// TestStreamConstantMemory: emitting documents does not grow the
// stream's footprint — each NextBatch slice is freshly allocated and
// never referenced again, so a long run holds only the batch in
// flight. The proxy assertion: batches are independent slices and the
// stream's only counter-like state is the emission count.
func TestStreamConstantMemory(t *testing.T) {
	s := testStream(t, 42)
	a := s.NextBatch(8)
	b := s.NextBatch(8)
	if &a[0] == &b[0] {
		t.Fatal("stream reused the batch backing array")
	}
	for i := range a {
		if a[i].ID != DocID(i) || b[i].ID != DocID(8+i) {
			t.Fatalf("sequence IDs wrong: a[%d]=%d b[%d]=%d", i, a[i].ID, i, b[i].ID)
		}
	}
}
