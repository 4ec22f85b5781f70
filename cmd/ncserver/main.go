// Command ncserver serves the NCExplorer engine over HTTP/JSON: the
// paper's interactive roll-up/drill-down workflow as a programmable
// API for dashboards and downstream risk pipelines, with optional
// live ingestion so the index tracks incoming news without restarts.
//
// Usage:
//
//	go run ./cmd/ncserver [-addr :8080] [-scale tiny|default] [-seed 42]
//	                      [-cache-shards 8] [-cache-capacity 256] [-maxk 100]
//	                      [-max-batch 64] [-session-ttl 30m] [-max-sessions 1024]
//	                      [-ingest] [-max-ingest-batch 1024] [-max-segments 4]
//	                      [-data-dir DIR] [-max-watchlists 64] [-alert-buffer 256]
//	                      [-webhook-timeout 5s] [-shutdown-timeout 5s]
//	                      [-role leader|replica] [-peer URL] [-shard i/n]
//	                      [-sync-interval 500ms]
//
// Endpoints (see internal/server for payload shapes):
//
//	POST /v2/query/rollup       POST /v2/query/drilldown
//	GET  /v1/concepts/{entity}  GET /v1/broader/{concept}
//	GET  /v1/keywords/{concept} GET /v1/topics
//	POST /v2/batch              POST /v2/ingest (with -ingest)
//	/v2/sessions (+ /{id}/rollup|drilldown|zoom|back)
//	/v2/watchlists (+ /{id}, /{id}/events SSE stream)
//	GET  /healthz               GET /statsz
//
// Standing queries:
//
//	POST /v2/watchlists registers a concept pattern (with optional
//	source/min-score filters and a webhook URL); every batch ingested
//	afterwards via /v2/ingest is evaluated against it and matches are
//	pushed as alerts: streamed on GET
//	/v2/watchlists/{id}/events (SSE, resume with ?after=<last id>) and
//	POSTed to the webhook with bounded retries. Watchlists and delivery
//	cursors persist in -data-dir and survive restarts.
//	-max-watchlists caps registrations, -alert-buffer sets the
//	per-watchlist retention window, -webhook-timeout bounds each POST.
//
// Live ingestion:
//
//	-ingest enables POST /v2/ingest:
//	    curl -s -X POST localhost:8080/v2/ingest \
//	        -d '{"articles":[{"source":"reuters","title":"...","body":"..."}]}'
//
// Multi-node serving:
//
//	-role leader marks this node the write side of a replica set: it
//	requires -data-dir (the snapshot directory is what ships) and
//	additionally serves the internal replication and scatter endpoints
//	(GET /internal/manifest, GET /internal/segments/{name},
//	GET /internal/stats, POST /internal/remote-stats, and the
//	POST /internal/query/* scatter calls a router fans out).
//	-role replica boots with no corpus at all: it polls -peer (the
//	leader's base URL) for new snapshot generations, ships only the
//	segment files it has never seen into -data-dir, warm-opens each
//	complete snapshot, and swaps it into the serving path atomically.
//	Until its first catch-up completes every public endpoint answers
//	503 {"state":"syncing",...}, which is how routers exclude it.
//	-shard i/n builds (or, on warm boot, verifies) this node as shard
//	i of an n-way federated corpus: it indexes only its slice of the
//	articles under global document IDs, and scores with corpus-global
//	statistics once a router runs the term-statistics exchange. See
//	cmd/ncrouter for the scatter-gather front door and DESIGN.md §10
//	for the topology.
//
// Durable snapshots:
//
//	-data-dir DIR makes restarts boring. On boot, if DIR holds a saved
//	snapshot it is opened instead of rebuilding the world — the NLP/
//	linking pipeline is skipped entirely and -scale/-seed are taken
//	from the snapshot's manifest. While running, every committed ingest
//	batch is checkpointed into DIR, so a crash loses at most the batch
//	in flight. On graceful shutdown the index is fully saved (including
//	the connectivity-score cache that makes the next open fast). A
//	failed final save logs, leaves the previous snapshot intact, and
//	exits non-zero so supervisors notice.
//
// Shutdown: SIGINT/SIGTERM ends SSE streams, stops the listener,
// drains in-flight requests (bounded by -shutdown-timeout), waits for
// a replica's catch-up loop to stop, stops the webhook worker after
// its in-flight delivery, lets background segment merges quiesce, and
// then performs the final -data-dir save. The ordering matters: every
// committed batch's alerts are fired before the final save runs, and
// an alert whose webhook delivery was cut off keeps its un-acked
// cursor, so it is redelivered after restart rather than dropped
// (at-least-once delivery).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ncexplorer"
	"ncexplorer/internal/cluster"
	"ncexplorer/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.String("scale", "default", "world scale: tiny or default")
	seed := flag.Uint64("seed", 42, "generation seed (0 selects the built-in default, 42)")
	shards := flag.Int("cache-shards", 8, "result cache shard count")
	capacity := flag.Int("cache-capacity", 256, "result cache entries per shard (negative disables)")
	maxK := flag.Int("maxk", 100, "maximum k accepted by query endpoints")
	maxBatch := flag.Int("max-batch", 64, "maximum queries per /v2/batch call")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle lifetime of exploration sessions")
	maxSessions := flag.Int("max-sessions", 1024, "maximum live exploration sessions (LRU eviction beyond)")
	ingest := flag.Bool("ingest", false, "enable POST /v2/ingest (live article ingestion)")
	maxIngestBatch := flag.Int("max-ingest-batch", 1024, "maximum articles per /v2/ingest call")
	maxSegments := flag.Int("max-segments", 4, "index segment count above which background merges trigger")
	maxWatchlists := flag.Int("max-watchlists", 64, "maximum registered watchlists (standing queries)")
	alertBuffer := flag.Int("alert-buffer", 256, "per-watchlist alert retention window (SSE catch-up and webhook redelivery)")
	webhookTimeout := flag.Duration("webhook-timeout", 5*time.Second, "per-attempt timeout for webhook alert deliveries")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "drain deadline for graceful shutdown")
	dataDir := flag.String("data-dir", "", "durable snapshot directory: warm-open on boot, checkpoint ingests, save on shutdown")
	role := flag.String("role", "", "cluster role: leader or replica (empty: standalone)")
	peer := flag.String("peer", "", "leader base URL to replicate from (with -role replica)")
	shardSpec := flag.String("shard", "", "shard position i/n of a federated corpus, e.g. 0/2")
	syncInterval := flag.Duration("sync-interval", 500*time.Millisecond, "replica manifest poll interval")
	flag.Parse()

	if *seed == 0 {
		log.Print("seed 0 selects the built-in default (42)")
	}
	if *role != "" && *role != "leader" && *role != "replica" {
		log.Fatalf("-role %q: want leader, replica, or empty (standalone)", *role)
	}
	shardIdx, shardCount, err := parseShardSpec(*shardSpec)
	if err != nil {
		log.Fatal(err)
	}
	if *role == "leader" && *dataDir == "" {
		log.Fatal("-role leader requires -data-dir: the snapshot directory is what ships to replicas")
	}
	if *role == "replica" {
		if *peer == "" {
			log.Fatal("-role replica requires -peer (the leader's base URL)")
		}
		if *dataDir == "" {
			log.Fatal("-role replica requires -data-dir (the local snapshot mirror)")
		}
	}
	// Only an explicit -max-segments overrides a snapshot's saved merge
	// policy on warm boot; the flag's default must not.
	openMaxSegments := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "max-segments" {
			openMaxSegments = *maxSegments
		}
	})
	// A replica boots with no explorer at all: the catch-up loop below
	// ships the leader's snapshot and installs one; the readiness gate
	// answers 503 syncing in the meantime.
	var x *ncexplorer.Explorer
	if *role != "replica" {
		x, err = bootExplorer(*dataDir, *scale, *seed, *maxSegments, openMaxSegments,
			*maxWatchlists, *alertBuffer, shardIdx, shardCount)
		if err != nil {
			log.Fatal(err)
		}
		// The webhook worker starts before serving so un-acked deliveries
		// from a previous run (loaded with the snapshot) resume immediately.
		x.StartWebhooks(*webhookTimeout)
		if *dataDir != "" {
			// Persist every committed ingest so a crash (as opposed to a
			// graceful shutdown) loses at most the batch in flight. For a
			// leader this is also the replication feed: replicas poll the
			// checkpointed snapshot directory.
			x.CheckpointTo(*dataDir)
		}
		if *role == "leader" && !ncexplorer.HasSnapshot(*dataDir) {
			// A cold-built leader publishes its seed snapshot immediately:
			// replicas bootstrap from the manifest, and waiting for the
			// first ingest would leave them syncing forever on a read-only
			// corpus.
			if err := x.Save(*dataDir); err != nil {
				log.Fatal(err)
			}
			log.Printf("published initial snapshot to %s (generation %d)", *dataDir, x.Generation())
		}
	}

	opts := server.Options{
		CacheShards:    *shards,
		CacheCapacity:  *capacity,
		MaxK:           *maxK,
		MaxBatch:       *maxBatch,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		EnableIngest:   *ingest,
		MaxIngestBatch: *maxIngestBatch,
	}
	if *role != "" || shardCount > 1 {
		// Cluster nodes (and standalone shards a router may query)
		// expose the internal scatter endpoints.
		opts.EnableCluster = true
	}
	if *role != "" {
		// Leaders ship their checkpoint directory; replicas re-serve the
		// mirror they fetched, so replicas can daisy-chain.
		opts.ClusterDataDir = *dataDir
	}
	s := server.New(x, opts)

	var rep *cluster.Replica
	if *role == "replica" {
		rep = newReplica(s, strings.TrimRight(*peer, "/"), *dataDir, *syncInterval,
			ncexplorer.OpenOptions{
				MaxSegments:   openMaxSegments,
				MaxWatchlists: *maxWatchlists,
				AlertBuffer:   *alertBuffer,
			})
	} else if *role == "leader" {
		s.SetClusterInfo(func() *server.ClusterInfo {
			idx, n, _ := x.ShardInfo()
			return &server.ClusterInfo{
				Role: "leader", Shard: idx, ShardCount: n,
				Generation: x.Generation(),
			}
		})
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var watchWG sync.WaitGroup
	if rep != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			rep.Run(ctx)
		}()
		log.Printf("replicating from %s into %s (poll every %s)", *peer, *dataDir, *syncInterval)
	}

	drained := make(chan struct{})
	var shutdownErr error
	go func() {
		defer close(drained)
		<-ctx.Done()
		// SSE streams end first: Shutdown waits for handlers to return,
		// and an open alert stream would otherwise hold the drain until
		// its deadline.
		s.StopStreams()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		shutdownErr = httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("serving on %s (POST /v2/query/rollup, POST /v2/query/drilldown, POST /v2/batch, "+
		"POST /v2/ingest, /v2/sessions CRUD + /{id}/rollup|drilldown|zoom|back, /v2/watchlists, "+
		"GET /v1/concepts/{entity}, GET /v1/broader/{concept}, GET /v1/keywords/{concept}, "+
		"GET /v1/topics, GET /healthz, GET /statsz)", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ErrServerClosed arrives as soon as the listener stops; wait for
	// Shutdown to finish draining in-flight requests (queries AND
	// ingest batches) — only then is the set of committed batches (and
	// the alerts they fired) final — and for a replica's catch-up loop
	// to stop. Then stop the webhook worker after its in-flight
	// delivery and let background segment merges settle.
	// An alert cut off un-acked keeps its delivery cursor; the final
	// save persists it and the next boot redelivers.
	<-drained
	watchWG.Wait()
	if x == nil {
		// A replica owns no durable state of its own: the mirror in
		// -data-dir is already a complete snapshot, and re-saving it
		// here would race the catch-up loop it just stopped.
		if shutdownErr != nil {
			log.Printf("shutdown: drain incomplete: %v", shutdownErr)
			os.Exit(1)
		}
		log.Print("shut down cleanly")
		return
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *shutdownTimeout)
	if err := x.DrainWebhooks(drainCtx); err != nil {
		log.Printf("shutdown: webhook drain incomplete: %v", err)
	}
	cancelDrain()
	x.Quiesce()
	// The final save runs only after requests have drained and merges
	// have settled, so the snapshot captures everything that was
	// committed. Failure here must NOT be silent: the previous snapshot
	// in -data-dir stays intact (the manifest swap is atomic and runs
	// last), but supervisors need the non-zero exit to know this
	// process's work was not fully persisted.
	saved := persistOnShutdown(x, *dataDir)
	if shutdownErr != nil {
		log.Printf("shutdown: drain incomplete: %v", shutdownErr)
	}
	if shutdownErr != nil || !saved {
		os.Exit(1)
	}
	log.Print("shut down cleanly")
}

// bootExplorer opens the saved snapshot in dataDir when one exists and
// builds the world from scratch otherwise. Only "nothing saved here"
// (CodeNotFound) selects the cold build: a present-but-unloadable
// snapshot — corrupt files, a future format version, an unreadable
// path — is a hard error, not a silent rebuild. Rebuilding would mask
// data loss, and the shutdown save's garbage collection would then
// destroy the evidence. openMaxSegments is the merge-policy override
// for a warm boot (0 keeps the snapshot's saved value); maxSegments
// configures a cold build. shardIdx/shardCount place the node in a
// federated corpus (shardCount > 1): a cold build indexes only this
// shard's slice, and a warm boot verifies the snapshot holds the shard
// the flags name — silently serving the wrong slice would corrupt
// every cross-shard merge.
func bootExplorer(dataDir, scale string, seed uint64, maxSegments, openMaxSegments, maxWatchlists, alertBuffer, shardIdx, shardCount int) (*ncexplorer.Explorer, error) {
	start := time.Now()
	if dataDir != "" {
		x, err := ncexplorer.Open(dataDir, ncexplorer.OpenOptions{
			MaxSegments:   openMaxSegments,
			MaxWatchlists: maxWatchlists,
			AlertBuffer:   alertBuffer,
		})
		if err == nil {
			if shardCount > 1 {
				if idx, n, _ := x.ShardInfo(); idx != shardIdx || n != shardCount {
					return nil, fmt.Errorf("snapshot in %s is shard %d/%d but -shard asked for %d/%d",
						dataDir, idx, n, shardIdx, shardCount)
				}
			}
			log.Printf("warm start from %s in %.1fs — %d articles (generation %d); -scale/-seed taken from the snapshot",
				dataDir, time.Since(start).Seconds(), x.NumArticles(), x.Generation())
			return x, nil
		}
		if e, ok := ncexplorer.AsError(err); !ok || e.Code != ncexplorer.CodeNotFound {
			return nil, err
		}
	}
	if shardCount > 1 {
		log.Printf("building %s world (seed %d), shard %d/%d...", scale, seed, shardIdx, shardCount)
	} else {
		log.Printf("building %s world (seed %d)...", scale, seed)
	}
	x, err := ncexplorer.New(ncexplorer.Config{
		Scale: scale, Seed: seed, MaxSegments: maxSegments,
		MaxWatchlists: maxWatchlists, AlertBuffer: alertBuffer,
		Shard: shardIdx, ShardCount: shardCount,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("world ready in %.1fs — %d articles indexed (generation %d)",
		time.Since(start).Seconds(), x.NumArticles(), x.Generation())
	return x, nil
}

// parseShardSpec parses "-shard i/n" into a shard position. The empty
// spec means unsharded (0, 0).
func parseShardSpec(spec string) (idx, count int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	slash := strings.IndexByte(spec, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("-shard %q: want i/n, e.g. 0/2", spec)
	}
	idx, err1 := strconv.Atoi(spec[:slash])
	count, err2 := strconv.Atoi(spec[slash+1:])
	if err1 != nil || err2 != nil || count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("-shard %q: want i/n with 0 <= i < n", spec)
	}
	return idx, count, nil
}

// newReplica wires the catch-up loop into the server: each complete
// snapshot swap publishes the fresh explorer atomically, status
// transitions drive the readiness gate, and /statsz exposes the
// shipping counters and replication lag.
func newReplica(s *server.Server, peer, dataDir string, interval time.Duration, open ncexplorer.OpenOptions) *cluster.Replica {
	var cur atomic.Pointer[ncexplorer.Explorer]
	var target atomic.Uint64
	rep := &cluster.Replica{
		Fetcher:     &cluster.Fetcher{BaseURL: peer, Dir: dataDir},
		Interval:    interval,
		OpenOptions: open,
		OnSwap: func(x *ncexplorer.Explorer) {
			cur.Store(x)
			s.SetExplorer(x)
		},
		Status: func(generation, tgt uint64, syncing bool) {
			if tgt > 0 {
				target.Store(tgt)
			}
			s.SetSyncState(generation, tgt, syncing)
		},
	}
	s.SetClusterInfo(func() *server.ClusterInfo {
		c := rep.Fetcher.Counters()
		info := &server.ClusterInfo{
			Role:             "replica",
			Generation:       rep.Generation(),
			TargetGeneration: target.Load(),
			ManifestPolls:    c.ManifestPolls,
			SegmentsFetched:  c.SegmentsFetched,
			SegmentsReused:   c.SegmentsReused,
			BytesShipped:     c.BytesShipped,
		}
		if x := cur.Load(); x != nil {
			info.Shard, info.ShardCount, _ = x.ShardInfo()
		}
		if info.TargetGeneration > info.Generation {
			info.GenerationLag = int64(info.TargetGeneration - info.Generation)
		}
		return info
	})
	return rep
}

// persistOnShutdown performs the final -data-dir save. It returns true
// when there is nothing to save or the save succeeded; false means the
// save failed — the previous snapshot on disk is intact, the failure
// has been logged, and the caller must exit non-zero.
func persistOnShutdown(x *ncexplorer.Explorer, dataDir string) bool {
	if dataDir == "" {
		return true
	}
	start := time.Now()
	if err := x.Save(dataDir); err != nil {
		log.Printf("shutdown: final save to %s FAILED (previous snapshot left intact): %v", dataDir, err)
		return false
	}
	log.Printf("shutdown: saved snapshot to %s in %.1fs (generation %d, %d articles)",
		dataDir, time.Since(start).Seconds(), x.Generation(), x.NumArticles())
	return true
}
