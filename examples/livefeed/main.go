// Livefeed: the due-diligence monitoring loop over a live corpus.
// Build a world, run a watchlist query, ingest a batch of "incoming"
// articles, and re-run the query — the new coverage appears at the
// next index generation, with no rebuild and no downtime, and
// drill-down suggestions pick up the fresh documents too.
//
//	go run ./examples/livefeed
package main

import (
	"context"
	"fmt"
	"log"

	"ncexplorer"
)

func main() {
	x, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("indexed %d articles (index generation %d)\n\n", x.NumArticles(), x.Generation())

	// The analyst's watchlist query: one of the built-in evaluation
	// topics, queried through the typed API so we see match totals and
	// the serving generation.
	topic := x.EvaluationTopics()[0]
	watch := ncexplorer.RollUpRequest{Concepts: []string{topic[0]}, K: 3, Explain: true}
	before, err := x.RollUpQuery(ctx, watch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Watchlist %v — %d matching articles at generation %d:\n",
		watch.Concepts, before.Total, before.Generation)
	for i, a := range before.Articles {
		fmt.Printf("%d. [%.3f] %s\n", i+1, a.Score, a.Title)
	}

	// News arrives. SampleArticles stands in for a feed consumer: it
	// synthesises fresh articles from the same world the corpus came
	// from (in production this is POST /v2/ingest).
	incoming, err := x.SampleArticles(2024, 30)
	if err != nil {
		log.Fatal(err)
	}
	res, err := x.Ingest(ctx, incoming)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ningested %d articles → generation %d (%d total)\n",
		res.Accepted, res.Generation, res.TotalArticles)

	// The same query now sees the new coverage — atomically: every
	// result in the page is served from one generation.
	after, err := x.RollUpQuery(ctx, watch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWatchlist %v — %d matching articles at generation %d (+%d new):\n",
		watch.Concepts, after.Total, after.Generation, after.Total-before.Total)
	for i, a := range after.Articles {
		marker := ""
		if a.ID >= res.TotalArticles-res.Accepted {
			marker = "  ← new"
		}
		fmt.Printf("%d. [%.3f] %s%s\n", i+1, a.Score, a.Title, marker)
	}

	// Drill-down re-ranks its subtopics over the grown corpus.
	subs, err := x.DrillDownQuery(ctx, ncexplorer.DrillDownRequest{
		Concepts: watch.Concepts, K: 5, Explain: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDrill-down at generation %d:\n", subs.Generation)
	for i, s := range subs.Suggestions {
		fmt.Printf("%d. %-28s (score %.3f, %d docs)\n", i+1, s.Concept, s.Score, s.MatchedDocs)
	}

	st := x.Stats()
	fmt.Printf("\nindex: generation %d, segments %v, ingest %d batches / %d docs\n",
		st.Generation, st.Segments, st.Ingest.Batches, st.Ingest.Docs)
}
