// Package corpus models news documents and generates the synthetic
// corpus that replaces the paper's 200k crawled articles from Reuters,
// SeekingAlpha and The New York Times (which cannot be redistributed or
// re-crawled offline).
//
// Each generated article is written from topic-specific templates around
// *focus entities* drawn from a topic concept's extent and *context
// entities* drawn from their KG neighbourhoods, so that:
//
//   - entity linking (internal/nlp) rediscovers the mentions,
//   - concept-pattern queries over the KG ontology match the documents
//     that were generated about them, and
//   - the connectivity score finds short instance-space paths between a
//     document's context entities and its topic's extent.
//
// Generation-time gold labels — the topical relevance grade of every
// (concept, document) pair and the deliberately mentioned entities — are
// retained. They stand in for "what a careful human reader could judge"
// and drive the simulated AMT evaluators in internal/eval. Out-of-KG
// surface forms are injected at source-specific rates to reproduce the
// linked/total entity ratios of the paper's dataset table (§IV).
package corpus

import (
	"fmt"

	"ncexplorer/internal/kg"
)

// DocID identifies a document within a corpus.
type DocID int32

// Source is the news portal a document belongs to.
type Source uint8

// The three sources of the paper's dataset.
const (
	SeekingAlpha Source = iota
	NYT
	Reuters
	numSources
)

// Sources lists all sources in display order.
var Sources = []Source{SeekingAlpha, NYT, Reuters}

func (s Source) String() string {
	switch s {
	case SeekingAlpha:
		return "seekingalpha"
	case NYT:
		return "nyt"
	case Reuters:
		return "reuters"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Document is one news article plus its generation-time gold labels.
type Document struct {
	ID     DocID
	Source Source
	Title  string
	Body   string

	// PublishedAt is the article's publication time as Unix seconds
	// (UTC). Generated articles carry a deterministic scenario-clock
	// value; externally ingested articles may leave it zero, in which
	// case the engine defaults it to the ingest wall clock (and counts
	// the defaulting) so no document silently lands in a 1970 bucket.
	PublishedAt int64

	// Topics maps concept → semantic relevance grade in [0, 5]: how
	// relevant a careful reader would judge this document to be for the
	// concept. Primary topics grade near 5; their ontology ancestors
	// decay; incidental topics grade low. Absent concepts grade 0.
	Topics map[kg.NodeID]float64

	// GoldEntities are the entities the generator deliberately wrote
	// about (focus first, then context).
	GoldEntities []kg.NodeID

	// Distractor marks market-wrap-style filler (daily price/volume
	// reports) that mentions entities and finance vocabulary without
	// being about any investigable event — the pollution the paper
	// observes in pure-embedding retrieval.
	Distractor bool
}

// Text returns title and body joined for indexing.
func (d *Document) Text() string { return d.Title + ". " + d.Body }

// Gold returns the semantic relevance grade of the document for a
// concept (0 if unlabelled).
func (d *Document) Gold(c kg.NodeID) float64 { return d.Topics[c] }

// Corpus is an immutable collection of documents.
type Corpus struct {
	Docs []Document
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Doc returns the document with the given ID.
func (c *Corpus) Doc(id DocID) *Document { return &c.Docs[id] }

// BySource returns the documents of one source, in ID order.
func (c *Corpus) BySource(s Source) []*Document {
	var out []*Document
	for i := range c.Docs {
		if c.Docs[i].Source == s {
			out = append(out, &c.Docs[i])
		}
	}
	return out
}

// SourceStats summarises one source the way the paper's dataset table
// does: article count, total recognised entity mentions, linked
// mentions, and the linked ratio. Populated by the harness after
// running the NLP pipeline.
type SourceStats struct {
	Source         Source
	Articles       int
	TotalMentions  int
	LinkedMentions int
}

// LinkedRatio returns linked/total mentions (0 when empty).
func (s SourceStats) LinkedRatio() float64 {
	if s.TotalMentions == 0 {
		return 0
	}
	return float64(s.LinkedMentions) / float64(s.TotalMentions)
}
