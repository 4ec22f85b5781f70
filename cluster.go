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

// Graph exposes the knowledge graph (immutable after construction).
func (x *Explorer) Graph() *kg.Graph { return x.g }

// Scale names the synthetic-world scale this Explorer was built at.
func (x *Explorer) Scale() string { return x.scale }

// Seed returns the world seed; together with Scale it identifies the
// deterministic world, which is how cluster nodes verify they share
// one graph (equal (scale, seed) ⇒ byte-identical graphs and node
// IDs).
func (x *Explorer) Seed() uint64 { return x.engine.Options().Seed }

// ShardInfo reports the Explorer's cluster position: shard index,
// shard count, and whether it is sharded at all.
func (x *Explorer) ShardInfo() (index, count int, sharded bool) {
	return x.engine.ShardInfo()
}

// ResolveConcepts maps concept names to node IDs with the facade's
// typed errors — the internal scatter endpoints use it to turn a
// router's canonical concept list into a core query.
func (x *Explorer) ResolveConcepts(names []string) (core.Query, error) {
	return resolveConceptsOn(x.g, names)
}

// QueryWorld is the router's world model: the knowledge graph (and
// evaluation metadata) regenerated deterministically from (scale,
// seed), with the same name resolution and error surface the Explorer
// uses — but no corpus and no engine. A router resolves concept names
// against it, ships node IDs to the shards, and renders shard answers
// back to names.
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
	g, meta, err := kggen.Generate(kcfg)
	if err != nil {
		return nil, err
	}
	return &QueryWorld{g: g, meta: meta, scale: scale, seed: seed}, nil
}

// Graph returns the regenerated knowledge graph.
func (w *QueryWorld) Graph() *kg.Graph { return w.g }

// Scale returns the normalized world scale.
func (w *QueryWorld) Scale() string { return w.scale }

// Seed returns the world seed.
func (w *QueryWorld) Seed() uint64 { return w.seed }

// ResolveRollUp validates req against the world's graph with the
// rulebook, and in the order, RollUpQuery applies, and returns it with
// its concept list canonicalized — what a router checks before it
// scatters, so every request fails with the error a monolithic server
// gives it.
func (w *QueryWorld) ResolveRollUp(req RollUpRequest) (RollUpRequest, error) {
	p, err := req.plan(w.g)
	req.Concepts = p.concepts
	return req, err
}

// ResolveDrillDown is ResolveRollUp for a drill-down.
func (w *QueryWorld) ResolveDrillDown(req DrillDownRequest) (DrillDownRequest, error) {
	p, err := req.plan(w.g)
	req.Concepts = p.concepts
	return req, err
}

// RenderDrillDown renders a router's merged drill-down page for req (as
// ResolveDrillDown returned it) exactly as DrillDownQuery renders the
// engine's.
func (w *QueryWorld) RenderDrillDown(req DrillDownRequest, page core.DrillDownPage) DrillDownResult {
	return renderDrillDown(w.g, req, page)
}

// EvaluationTopics returns the Table-I topic names, like
// Explorer.EvaluationTopics.
func (w *QueryWorld) EvaluationTopics() [][2]string {
	var out [][2]string
	for _, t := range w.meta.Topics {
		out = append(out, [2]string{w.g.Name(t.Concept), w.g.Name(t.GroupConcept)})
	}
	return out
}
