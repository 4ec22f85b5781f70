package ncexplorer_test

import (
	"context"
	"testing"

	"ncexplorer"
)

// BenchmarkOpenSnapshot measures the warm-restart story: "warm" opens
// a saved snapshot (the world rebuild, whose engine builds the NLP
// gazetteer, overlapped with decoding the segments and conn
// companions, then the rescore — no linking, no random walks), "cold"
// is the from-scratch New() on the same corpus it replaces. The acceptance bar for PR 5 is warm ≥ 5×
// faster than cold; scripts/bench_json.sh records both and their
// ratio in BENCH_pr5.json.
func BenchmarkOpenSnapshot(b *testing.B) {
	cfg := ncexplorer.Config{Scale: "tiny", Seed: 42, MaxSegments: 4}
	x, err := ncexplorer.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// A couple of ingested batches make the saved store multi-segment,
	// the shape a long-running server actually persists.
	for i := uint64(0); i < 2; i++ {
		arts, err := x.SampleArticles(900+i, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := x.Ingest(context.Background(), arts); err != nil {
			b.Fatal(err)
		}
	}
	x.Quiesce()
	dir := b.TempDir()
	if err := x.Save(dir); err != nil {
		b.Fatal(err)
	}

	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			y, err := ncexplorer.Open(dir, ncexplorer.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if y.NumArticles() != x.NumArticles() {
				b.Fatal("short open")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		// The same corpus the snapshot holds: seed world + the two
		// ingested batches, through the full pipeline.
		for i := 0; i < b.N; i++ {
			y, err := ncexplorer.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for j := uint64(0); j < 2; j++ {
				arts, err := y.SampleArticles(900+j, 16)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := y.Ingest(context.Background(), arts); err != nil {
					b.Fatal(err)
				}
			}
			y.Quiesce()
			if y.NumArticles() != x.NumArticles() {
				b.Fatal("short build")
			}
		}
	})
}
