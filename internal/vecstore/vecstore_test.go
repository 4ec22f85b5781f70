package vecstore

import (
	"fmt"
	"testing"

	"ncexplorer/internal/embed"
	"ncexplorer/internal/xrand"
)

// clusteredData builds vectors around nClusters topic centroids, like
// documents around topics.
func clusteredData(dim, nClusters, perCluster int, seed uint64) (*Store, [][]float32) {
	r := xrand.New(seed)
	s := New(dim)
	centers := make([][]float32, nClusters)
	id := int32(0)
	for c := 0; c < nClusters; c++ {
		center := make([]float32, dim)
		for d := range center {
			center[d] = float32(r.NormFloat64())
		}
		centers[c] = center
		for p := 0; p < perCluster; p++ {
			v := make([]float32, dim)
			for d := range v {
				v[d] = center[d] + 0.3*float32(r.NormFloat64())
			}
			if err := s.Add(id, v); err != nil {
				panic(err)
			}
			id++
		}
	}
	return s, centers
}

func TestExactSearchFindsNearest(t *testing.T) {
	s, centers := clusteredData(32, 4, 25, 1)
	for c, center := range centers {
		hits := s.Search(center, 10)
		if len(hits) != 10 {
			t.Fatalf("hits = %d", len(hits))
		}
		// All top hits should come from cluster c (ids c*25..c*25+24).
		for _, h := range hits {
			if int(h.ID)/25 != c {
				t.Errorf("cluster %d query returned id %d (cluster %d)", c, h.ID, int(h.ID)/25)
			}
		}
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score {
				t.Fatal("hits not sorted")
			}
		}
	}
}

func TestSearchExactMatchTop1(t *testing.T) {
	s, _ := clusteredData(16, 3, 10, 2)
	q := append([]float32(nil), s.vecs[7]...)
	hits := s.Search(q, 1)
	if hits[0].ID != 7 {
		t.Fatalf("self-query returned %d", hits[0].ID)
	}
	if hits[0].Score < 0.999 {
		t.Fatalf("self-similarity = %v", hits[0].Score)
	}
}

func TestAddDimensionValidation(t *testing.T) {
	s := New(8)
	if err := s.Add(1, make([]float32, 7)); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := s.Add(1, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Dim() != 8 {
		t.Fatal("accessor mismatch")
	}
}

func TestEndToEndWithEmbedder(t *testing.T) {
	e := embed.New(64)
	s := New(64)
	docs := []string{
		"tariffs and trade disputes dominate the summit",
		"the union called a strike over wages",
		"a merger premium lifted biotech shares",
		"import tariffs rattled exporters and customs officials",
	}
	for i, d := range docs {
		if err := s.Add(int32(i), e.EmbedText(d)); err != nil {
			t.Fatal(err)
		}
	}
	hits := s.Search(e.EmbedText("trade tariffs and customs"), 2)
	if hits[0].ID != 3 && hits[0].ID != 0 {
		t.Fatalf("expected a trade doc first, got %d", hits[0].ID)
	}
	if hits[1].ID != 0 && hits[1].ID != 3 {
		t.Fatalf("expected both trade docs on top, got %+v", hits)
	}
}

func BenchmarkExactSearch(b *testing.B) {
	s, _ := clusteredData(256, 10, 200, 1)
	q := append([]float32(nil), s.vecs[42]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(q, 10)
	}
}

func ExampleStore_Search() {
	e := embed.New(32)
	s := New(32)
	_ = s.Add(1, e.EmbedText("court verdict on appeal"))
	_ = s.Add(2, e.EmbedText("election ballot recount"))
	hits := s.Search(e.EmbedText("appeal court ruling"), 1)
	fmt.Println(hits[0].ID)
	// Output: 1
}
