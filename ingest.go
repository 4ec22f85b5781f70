package ncexplorer

import (
	"context"
	"strings"
	"time"

	"ncexplorer/internal/corpus"
)

// IngestArticle is one incoming news article for live ingestion:
// plain text plus its source portal. The NLP pipeline (annotation,
// entity linking, candidate concept scoring) runs at ingest time —
// exactly the pipeline the seed corpus went through.
type IngestArticle struct {
	// Source names the news portal; must be one of SourceNames()
	// (case-insensitive).
	Source string `json:"source"`
	Title  string `json:"title"`
	Body   string `json:"body"`
	// PublishedAt is the article's publication time in RFC3339
	// (e.g. "2023-09-04T08:00:00Z"). Optional: when empty the engine
	// stamps the ingest wall clock and counts the article in
	// Stats.Ingest.DocsDefaultedTime.
	PublishedAt string `json:"published_at,omitempty"`
}

// IngestResult reports one accepted batch.
type IngestResult struct {
	// Accepted is the number of articles added.
	Accepted int `json:"accepted"`
	// Generation is the index generation now serving — every query
	// result with the same Generation includes this batch.
	Generation uint64 `json:"generation"`
	// TotalArticles is the corpus size after the batch.
	TotalArticles int `json:"total_articles"`
	// PersistSeq is the batch's checkpoint sequence: pass it to
	// WaitDurable to block until the checkpoint covering this batch has
	// been attempted. It is a process-local handle, not API surface.
	PersistSeq uint64 `json:"-"`
}

// Ingest indexes a batch of articles into the live corpus and
// atomically publishes the next index generation. The whole batch
// becomes visible at once — queries concurrent with the call observe
// either none of it or all of it, and queries already in flight are
// untouched (they pinned the snapshot they started with). Sessions,
// cached patterns, and document IDs all remain valid: the corpus is
// append-only.
//
// Every article must name a known source and carry some text. The
// batch is validated before any indexing work, so an invalid article
// rejects the batch atomically with CodeInvalidArgument. Cancellation
// via ctx aborts before the swap (CodeCancelled /
// CodeDeadlineExceeded); a cancelled batch is never partially
// visible.
func (x *Explorer) Ingest(ctx context.Context, articles []IngestArticle) (IngestResult, error) {
	if len(articles) == 0 {
		return IngestResult{}, newErrorf(CodeInvalidArgument, "ncexplorer: empty ingest batch")
	}
	docs := make([]corpus.Document, len(articles))
	for i, a := range articles {
		src, err := resolveSource(a.Source)
		if err != nil {
			e := newErrorf(CodeInvalidArgument,
				"ncexplorer: article %d: unknown source %q", i, a.Source)
			e.Details = map[string]any{"index": i, "source": a.Source, "valid_sources": SourceNames()}
			return IngestResult{}, e
		}
		if strings.TrimSpace(a.Title) == "" && strings.TrimSpace(a.Body) == "" {
			return IngestResult{}, newErrorf(CodeInvalidArgument,
				"ncexplorer: article %d: empty title and body", i)
		}
		var pub int64
		if a.PublishedAt != "" {
			t, err := time.Parse(time.RFC3339, a.PublishedAt)
			if err != nil {
				e := newErrorf(CodeInvalidArgument,
					"ncexplorer: article %d: invalid published_at %q: want RFC3339", i, a.PublishedAt)
				e.Details = map[string]any{"index": i, "published_at": a.PublishedAt}
				return IngestResult{}, e
			}
			pub = t.Unix()
		}
		docs[i] = corpus.Document{Source: src, Title: a.Title, Body: a.Body, PublishedAt: pub}
	}
	res, err := x.engine.Ingest(ctx, docs)
	if err != nil {
		return IngestResult{}, ctxError(err)
	}
	return IngestResult{
		Accepted:      res.Docs,
		Generation:    res.Generation,
		TotalArticles: res.TotalDocs,
		PersistSeq:    res.PersistSeq,
	}, nil
}

// WaitDurable blocks until the checkpoint attempt covering seq (an
// IngestResult.PersistSeq) has completed — the durability barrier a
// serving layer runs before acknowledging a batch. Ingest itself
// returns at commit: the batch is queryable immediately, and its
// checkpoint drains through the group-commit writer while later
// batches analyze and commit. A zero seq returns immediately.
func (x *Explorer) WaitDurable(seq uint64) { x.engine.WaitPersisted(seq) }

// resolveSource maps one source name to its corpus source.
func resolveSource(name string) (corpus.Source, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, s := range corpus.Sources {
		if s.String() == n {
			return s, nil
		}
	}
	return 0, newErrorf(CodeInvalidArgument, "ncexplorer: unknown source %q", name)
}

// SampleArticles synthesises n fresh articles from the world's
// generator under an independent seed — material for demos, load
// tests, and benchmarks of the ingest path. Articles are drawn
// round-robin across sources; distinct seeds give distinct batches,
// and none of them reproduce seed-corpus documents (the seed corpus
// uses its own stream).
func (x *Explorer) SampleArticles(seed uint64, n int) ([]IngestArticle, error) {
	if n <= 0 {
		return nil, newErrorf(CodeInvalidArgument, "ncexplorer: invalid sample size %d", n)
	}
	docs, err := corpus.GenerateBatch(x.g, x.meta, x.ccfg, seed, n)
	if err != nil {
		return nil, err
	}
	out := make([]IngestArticle, len(docs))
	for i, d := range docs {
		out[i] = IngestArticle{Source: d.Source.String(), Title: d.Title, Body: d.Body}
		if d.PublishedAt != 0 {
			out[i].PublishedAt = time.Unix(d.PublishedAt, 0).UTC().Format(time.RFC3339)
		}
	}
	return out, nil
}

// Quiesce blocks until background index maintenance (segment merges)
// has drained. Queries never need it; graceful shutdown and
// determinism-sensitive tests do.
func (x *Explorer) Quiesce() { x.engine.WaitMerges() }
