package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ncexplorer/internal/kg"
)

// benchQueries enumerates a large pool of distinct single-concept
// queries (every concept in the world), so the cold-cache parallel
// benchmarks spread concurrent work across many plans the way real
// mixed traffic does.
func benchQueries(g *kg.Graph) []Query {
	var qs []Query
	g.Concepts(func(c kg.NodeID) bool {
		qs = append(qs, Query{c})
		return true
	})
	return qs
}

// runColdParallel times distinct-query concurrent traffic. It cannot
// use b.RunParallel over a fixed query pool: auto-scaled b.N quickly
// outgrows the pool and replays one query. Instead each b.N iteration
// drains the whole pool once through GOMAXPROCS goroutines. "Cold"
// names that traffic, not a reset: the engine keeps no query-path
// memo (ResetQueryCaches only advances the cache epoch), and the
// generation state queries fill lazily — plan ceilings, per-document
// scores — stays filled after the first pass. The per-query cost is
// reported as ns/query.
func runColdParallel(b *testing.B, qs []Query, run func(q Query)) {
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(qs) {
						return
					}
					run(qs[j])
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}

// BenchmarkRollUpParallel measures roll-up throughput under concurrent
// load. The warm variant replays one query via b.RunParallel through
// the page-reusing RollUpPageInto — pure read-path concurrency, gated
// at 0 allocs/op. The cold variant times one pass per iteration over
// distinct queries (see runColdParallel) through the allocating public
// API, so the full per-query cost — pruned plan scan plus page
// construction — is what is measured.
func BenchmarkRollUpParallel(b *testing.B) {
	g, meta, _, e := world(b)
	topic := meta.Topics[0]
	warmQ := Query{topic.Concept, topic.GroupConcept}

	b.Run("warm", func(b *testing.B) {
		ctx := context.Background()
		opts := RollUpOptions{K: 10}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var page RollUpPage
			for pb.Next() {
				if err := e.RollUpPageInto(ctx, warmQ, opts, &page); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("cold", func(b *testing.B) {
		runColdParallel(b, benchQueries(g), func(q Query) { e.RollUp(q, 10) })
	})
}

// BenchmarkDrillDownParallel is the drill-down analogue of
// BenchmarkRollUpParallel: warm replays one suggestion round under
// b.RunParallel, cold times passes over distinct queries.
func BenchmarkDrillDownParallel(b *testing.B) {
	g, meta, _, e := world(b)
	topic := meta.Topics[0]
	warmQ := Query{topic.Concept, topic.GroupConcept}

	b.Run("warm", func(b *testing.B) {
		e.DrillDown(warmQ, 10)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				e.DrillDown(warmQ, 10)
			}
		})
	})
	b.Run("cold", func(b *testing.B) {
		runColdParallel(b, benchQueries(g), func(q Query) { e.DrillDown(q, 10) })
	})
}
