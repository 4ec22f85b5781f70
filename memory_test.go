package ncexplorer

import (
	"context"
	"runtime"
	"testing"
)

// TestLiveFeedMemoryGate pins what the sparse reachability tables
// bought: a default-scale world that has indexed its seed corpus and
// ingested 40 batches of 32 articles holds every distance table it ever
// needed in a few MB, and its whole live heap fits in 100 MB. With one
// dense []int16 per target the tables alone were ~190 MB of a 249 MB
// heap at this point.
func TestLiveFeedMemoryGate(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale world")
	}
	x, err := New(Config{Scale: "default", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		arts, err := x.SampleArticles(9000+i, 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Ingest(context.Background(), arts); err != nil {
			t.Fatal(err)
		}
	}
	x.Quiesce()

	reach := x.Stats().Reach
	t.Logf("reach: %+v", reach)
	if reach.Tables == 0 || reach.Builds != reach.Tables {
		t.Errorf("reach counters implausible (evictions at default scale?): %+v", reach)
	}
	if reach.Bytes > 8<<20 {
		t.Errorf("reach tables hold %d bytes, want ≤ 8 MB", reach.Bytes)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("HeapAlloc after GC: %.1f MB", float64(ms.HeapAlloc)/(1<<20))
	if ms.HeapAlloc > 100<<20 {
		t.Errorf("live heap %.1f MB, want ≤ 100 MB", float64(ms.HeapAlloc)/(1<<20))
	}
	runtime.KeepAlive(x)
}
