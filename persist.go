package ncexplorer

import (
	"errors"
	"time"

	"ncexplorer/internal/core"
	"ncexplorer/internal/segio"
	"ncexplorer/internal/watch"
)

// Durable snapshot persistence: Save serializes an Explorer's indexed
// corpus to a directory, Open restarts from one without re-running the
// linking pipeline. The knowledge graph itself is not persisted — it
// is regenerated deterministically from the seed recorded in the
// manifest (equal seeds produce byte-identical graphs), which keeps
// the on-disk format about the one thing that is expensive to rebuild:
// the indexed corpus. The regeneration needs none of the files, so
// Open runs it on its own goroutine while the caller decodes them.

// OpenOptions adjusts storage policy when reopening a snapshot.
// Content-determining parameters (seed, scale, sampling) always come
// from the manifest — overriding them would make the loaded index
// disagree with its own scores.
type OpenOptions struct {
	// MaxSegments overrides the merge-policy bound; 0 keeps the saved
	// value.
	MaxSegments int
	// MaxWatchlists caps concurrently registered watchlists (default
	// 64). A snapshot holding more watchlists than the cap still opens;
	// the cap only refuses new registrations.
	MaxWatchlists int
	// AlertBuffer is the per-watchlist alert retention window (default
	// 256).
	AlertBuffer int
}

// Save durably persists the Explorer's current index snapshot into
// dir (created if needed): one immutable, CRC-protected file per
// segment, beside it that segment's conn companion (the walked
// connectivity values of its documents, so a reopen walks nothing), and
// an atomically replaced MANIFEST. Concurrent queries are unaffected; concurrent
// ingests serialize around the save. On error the directory's previous
// snapshot, if any, is untouched.
func (x *Explorer) Save(dir string) error {
	if err := x.engine.SaveSnapshot(dir, x.worldMeta()); err != nil {
		return persistError(err)
	}
	return nil
}

// CheckpointTo enables per-commit checkpointing into dir: every
// ingested batch (and every background segment merge) updates dir so
// a crash loses at most the batch in flight. Pass "" to disable.
// Checkpoint failures never fail the ingest that triggered them; they
// are counted in Stats().Persist.CheckpointErrors.
func (x *Explorer) CheckpointTo(dir string) {
	x.engine.SetCheckpointDir(dir, x.worldMeta())
}

// HasSnapshot reports whether dir contains a loadable snapshot
// manifest (it does not validate the referenced files — Open does).
func HasSnapshot(dir string) bool {
	_, err := segio.ReadManifest(dir)
	return err == nil
}

// Open loads a persisted snapshot in two lanes that share nothing
// until the end. A goroutine regenerates the knowledge graph from the
// manifest's recorded seed and scale and constructs the engine (its
// linker builds the gazetteer), while the caller decodes the segment
// files, their conn companions and the standing-query file. Open always
// waits for both lanes. It then rescores the corpus through the same
// swap path every ingest uses, taking each connectivity factor from the
// companions instead of walking it. The result answers every query
// byte-identically to the Explorer that saved, at the same generation,
// and can keep ingesting from there. Errors are typed: CodeNotFound (no
// snapshot in dir), CodeCorruptSnapshot, or CodeVersionMismatch — never
// a partially initialized Explorer. They come in a fixed order whatever
// the lanes' timing: the manifest, its world scale, the world build,
// the engine options, then the first bad file in the order a serial
// read meets them (segments in manifest order, companions, the watch
// file).
func Open(dir string, opts OpenOptions) (*Explorer, error) {
	began := time.Now()
	m, err := segio.ReadManifest(dir)
	if err != nil {
		return nil, persistError(err)
	}
	scale, kcfg, ccfg, err := worldConfigs(m.World["scale"], m.Engine.Seed)
	if err != nil || m.World["scale"] == "" {
		return nil, &Error{Code: CodeCorruptSnapshot,
			Message: "ncexplorer: snapshot manifest names unknown world scale " + m.World["scale"]}
	}
	maxSegments := m.Engine.MaxSegments
	if opts.MaxSegments > 0 {
		maxSegments = opts.MaxSegments
	}
	type world struct {
		*QueryWorld
		engine *core.Engine
		took   time.Duration
		err    error
	}
	lane := make(chan world, 1)
	go func() {
		start := time.Now()
		var w world
		if w.QueryWorld, w.err = buildWorld(scale, kcfg); w.err == nil {
			w.engine = core.NewEngine(w.g, core.Options{
				Tau:               m.Engine.Tau,
				Beta:              m.Engine.Beta,
				Samples:           m.Engine.Samples,
				Seed:              m.Engine.Seed,
				MaxConceptsPerDoc: m.Engine.MaxConceptsPerDoc,
				AncestorLevels:    m.Engine.AncestorLevels,
				Exact:             m.Engine.Exact,
				MaxSegments:       maxSegments,
			})
		}
		w.took = time.Since(start)
		lane <- w
	}()
	store := core.ReadStore(dir, m)
	w := <-lane
	if w.err != nil {
		return nil, w.err
	}
	if err := w.engine.OpenStore(store, w.took, began); err != nil {
		return nil, persistError(err)
	}
	x := &Explorer{QueryWorld: w.QueryWorld, engine: w.engine, ccfg: ccfg}
	x.initWatch(watch.Options{MaxWatchlists: opts.MaxWatchlists, AlertBuffer: opts.AlertBuffer})
	if m.WatchFile != "" {
		if err := x.watch.Load(store.Watch); err != nil {
			return nil, persistError(err)
		}
	}
	return x, nil
}

// persistError maps segio/core persistence failures to the facade's
// typed errors.
func persistError(err error) error {
	if err == nil {
		return nil
	}
	var typed *Error
	if errors.As(err, &typed) {
		return err
	}
	switch {
	case errors.Is(err, segio.ErrNoSnapshot):
		return &Error{Code: CodeNotFound, Message: err.Error(), Err: err}
	case errors.Is(err, segio.ErrVersionMismatch):
		return &Error{Code: CodeVersionMismatch, Message: err.Error(), Err: err}
	case errors.Is(err, segio.ErrCorrupt):
		return &Error{Code: CodeCorruptSnapshot, Message: err.Error(), Err: err}
	default:
		return &Error{Code: CodeInternal, Message: err.Error(), Err: err}
	}
}

// worldMeta is the facade-level reconstruction data stored in every
// manifest this Explorer writes.
func (x *Explorer) worldMeta() map[string]string {
	return map[string]string{"scale": x.scale}
}
