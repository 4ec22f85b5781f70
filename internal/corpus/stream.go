package corpus

import (
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
)

// Stream is an unbounded, deterministic article source: the generator
// behind Generate/GenerateBatch exposed one document at a time. It
// produces documents in constant memory — nothing about an emitted
// document is retained, so a 100k-document ingest run holds only the
// batch in flight, never the corpus.
//
// Determinism contract: a Stream over (world, cfg, seed) emits exactly
// the sequence GenerateBatch(world, cfg, seed, n) returns, for every
// prefix length n and any split into Next/NextBatch calls. Sources
// rotate round-robin; IDs are the emission sequence (provisional — the
// indexer assigns global IDs at ingest time).
//
// A Stream is not safe for concurrent use; give each goroutine its own
// (distinct seeds give independent feeds).
type Stream struct {
	gen *generator
	n   int // documents emitted
}

// NewStream opens a deterministic article stream over the world. The
// seed overrides cfg.Seed, mirroring GenerateBatch: equal (world, cfg,
// seed) means an identical stream, independent of the seed corpus.
func NewStream(g *kg.Graph, meta *kggen.Meta, cfg Config, seed uint64) (*Stream, error) {
	cfg.Seed = seed
	if cfg.Docs == nil {
		cfg.Docs = Tiny().Docs
	}
	if cfg.OOV == nil {
		cfg.OOV = defaultOOV()
	}
	if cfg.DistractorRate <= 0 {
		cfg.DistractorRate = 0.12
	}
	gen, err := newGenerator(g, meta, cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{gen: gen}, nil
}

// Next emits the stream's next document.
func (s *Stream) Next() Document {
	doc := s.gen.article(Sources[s.n%len(Sources)])
	doc.ID = DocID(s.n)
	s.n++
	return doc
}

// NextBatch emits the next n documents. The slice is freshly allocated
// and owned by the caller; the stream keeps no reference to it.
func (s *Stream) NextBatch(n int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = s.Next()
	}
	return docs
}
