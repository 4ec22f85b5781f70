package ncexplorer

// Multi-node serving surface: what the cluster layers (the HTTP
// server's internal replication endpoints, the replica catch-up loop,
// and the scatter-gather query router) build on. An Explorer can be
// constructed as one shard of a federated corpus (Config.ShardCount),
// and a QueryWorld is the corpus-less counterpart a router holds: the
// deterministic knowledge graph regenerated from (scale, seed), enough
// to resolve and render concept queries whose execution happens on the
// shards. See DESIGN.md §10 for the topology and the exactness
// argument.

import (
	"context"
	"errors"

	"ncexplorer/internal/core"
	"ncexplorer/internal/kg"
	"ncexplorer/internal/kggen"
)

// WrapContextErr converts a raw context error from an engine-level
// call into the facade's typed error (CodeCancelled or
// CodeDeadlineExceeded), exactly as the facade's own query methods do;
// other errors pass through unchanged. The serving layers use it when
// they call engine scatter primitives directly.
func WrapContextErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ctxError(err)
	}
	return err
}

// Engine exposes the underlying core engine to the internal serving
// layers (HTTP server, cluster router and replica). It is not a
// stability-guaranteed public API: the facade methods are.
func (x *Explorer) Engine() *core.Engine { return x.engine }

// ShardInfo reports the Explorer's cluster position: shard index,
// shard count, and whether it is sharded at all.
func (x *Explorer) ShardInfo() (index, count int, sharded bool) {
	return x.engine.ShardInfo()
}

// QueryWorld is the world model every node resolves queries through:
// the knowledge graph (and evaluation metadata) regenerated
// deterministically from (scale, seed), with the facade's name
// resolution and error surface. An Explorer embeds one beside its
// corpus and engine; a router holds one alone — it resolves concept
// names against it, ships node IDs to the shards, and renders shard
// answers back to names.
type QueryWorld struct {
	g     *kg.Graph
	meta  *kggen.Meta
	scale string
	seed  uint64
}

// NewQueryWorld regenerates the world for (scale, seed). Seed 0 means
// the default seed, exactly as in Config.
func NewQueryWorld(scale string, seed uint64) (*QueryWorld, error) {
	if seed == 0 {
		seed = 42
	}
	scale, kcfg, _, err := worldConfigs(scale, seed)
	if err != nil {
		return nil, err
	}
	return buildWorld(scale, kcfg)
}

// buildWorld regenerates the knowledge graph for a normalized scale and
// its generator configuration — the one world build New, Open and
// NewQueryWorld share.
func buildWorld(scale string, kcfg kggen.Config) (*QueryWorld, error) {
	g, meta, err := kggen.Generate(kcfg)
	if err != nil {
		return nil, err
	}
	return &QueryWorld{g: g, meta: meta, scale: scale, seed: kcfg.Seed}, nil
}

// Graph exposes the knowledge graph (immutable after construction).
func (w *QueryWorld) Graph() *kg.Graph { return w.g }

// Scale names the synthetic-world scale, normalized ("" → "default").
func (w *QueryWorld) Scale() string { return w.scale }

// Seed returns the world seed; together with Scale it identifies the
// deterministic world, which is how cluster nodes verify they share
// one graph (equal (scale, seed) ⇒ byte-identical graphs and node
// IDs).
func (w *QueryWorld) Seed() uint64 { return w.seed }

// ResolveConcepts maps concept names to node IDs, producing typed
// errors: an empty list yields CodeInvalidArgument, an unknown name
// CodeUnknownConcept with nearest-concept suggestions in Details, and
// an entity name CodeInvalidArgument. Every query path resolves
// through it, so a router, a shard's scatter endpoints and a
// monolithic server reject a pattern with the same error.
func (w *QueryWorld) ResolveConcepts(names []string) (core.Query, error) {
	if len(names) == 0 {
		return nil, newErrorf(CodeInvalidArgument, "ncexplorer: empty concept query")
	}
	q := make(core.Query, 0, len(names))
	for _, name := range names {
		id, ok := w.g.Lookup(name)
		if !ok {
			return nil, w.unknownConceptError(name)
		}
		if !w.g.IsConcept(id) {
			return nil, newErrorf(CodeInvalidArgument,
				"ncexplorer: %q is an entity, not a concept (try ConceptsForEntity)", name)
		}
		q = append(q, id)
	}
	return q, nil
}

// unknownConceptError builds the typed unknown-concept error with its
// nearest-concept suggestions.
func (w *QueryWorld) unknownConceptError(concept string) *Error {
	e := newErrorf(CodeUnknownConcept, "ncexplorer: unknown concept %q", concept)
	e.Details = map[string]any{"concept": concept}
	if sugg := w.SuggestConcepts(concept, maxSuggestions); len(sugg) > 0 {
		e.Details["suggestions"] = sugg
	}
	return e
}

// ResolveRollUp validates req against the world's graph with the
// rulebook, and in the order, RollUpQuery applies, and returns it with
// its concept list canonicalized — what a router checks before it
// scatters, so every request fails with the error a monolithic server
// gives it.
func (w *QueryWorld) ResolveRollUp(req RollUpRequest) (RollUpRequest, error) {
	p, err := req.plan(w)
	req.Concepts = p.concepts
	return req, err
}

// ResolveDrillDown is ResolveRollUp for a drill-down.
func (w *QueryWorld) ResolveDrillDown(req DrillDownRequest) (DrillDownRequest, error) {
	p, err := req.plan(w)
	req.Concepts = p.concepts
	return req, err
}

// EvaluationTopics returns the six Table-I topic names with their
// query concepts, for callers reproducing the paper's evaluation.
func (w *QueryWorld) EvaluationTopics() [][2]string {
	var out [][2]string
	for _, t := range w.meta.Topics {
		out = append(out, [2]string{w.g.Name(t.Concept), w.g.Name(t.GroupConcept)})
	}
	return out
}
