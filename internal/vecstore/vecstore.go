// Package vecstore is the in-memory vector search engine standing in
// for Qdrant in the paper's setup (the BERT and NewsLink-BERT baselines
// retrieve documents by embedding similarity).
//
// Store.Search is exact cosine top-k by linear scan, fast enough at
// corpus scale.
package vecstore

import (
	"fmt"

	"ncexplorer/internal/embed"
	"ncexplorer/internal/topk"
)

// Hit is one vector search result.
type Hit struct {
	ID    int32
	Score float64 // cosine similarity
}

// Store holds vectors by ID. Vectors should be L2-normalised (the
// embedder guarantees this); search still computes true cosine.
type Store struct {
	dim  int
	ids  []int32
	vecs [][]float32
}

// New returns an empty store for vectors of the given dimensionality.
func New(dim int) *Store {
	if dim <= 0 {
		panic("vecstore: non-positive dimension")
	}
	return &Store{dim: dim}
}

// Len returns the number of stored vectors.
func (s *Store) Len() int { return len(s.ids) }

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Add stores a vector under an ID. The vector is not copied.
func (s *Store) Add(id int32, v []float32) error {
	if len(v) != s.dim {
		return fmt.Errorf("vecstore: vector dim %d, want %d", len(v), s.dim)
	}
	s.ids = append(s.ids, id)
	s.vecs = append(s.vecs, v)
	return nil
}

// Search returns the k nearest stored vectors by cosine similarity,
// exactly, in descending score order (ties: insertion order).
func (s *Store) Search(q []float32, k int) []Hit {
	if len(q) != s.dim {
		panic("vecstore: query dimension mismatch")
	}
	coll := topk.New[int32](k)
	for i, v := range s.vecs {
		coll.Push(s.ids[i], embed.Cosine(q, v))
	}
	return toHits(coll)
}

func toHits(coll *topk.Collector[int32]) []Hit {
	items := coll.Sorted()
	out := make([]Hit, len(items))
	for i, it := range items {
		out[i] = Hit{ID: it.Value, Score: it.Score}
	}
	return out
}
