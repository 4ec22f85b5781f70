// Command ncrouter is the scatter-gather front door of a sharded
// NCExplorer cluster: it owns no corpus, only the deterministic
// knowledge graph. It mounts ncserver's own query front door
// (internal/server's Front: decode, normalization, validation, error
// envelope, 404/405 fallbacks) and executes each query by fanning out
// to the shards' internal scatter endpoints and merging their answers
// exactly — byte-identical to a monolithic server over the union
// corpus, errors included (see internal/cluster and DESIGN.md §10).
//
// Usage:
//
//	go run ./cmd/ncrouter -addr :8090 \
//	    -shard http://leader0:8080,http://replica0a:8081 \
//	    -shard http://leader1:8090,http://replica1a:8091 \
//	    [-scale tiny|default] [-seed 42] [-timeout 10s] [-maxk 100] \
//	    [-sync-interval 2s]
//
// Each -shard flag lists one corpus shard's replica set, leader first;
// reads prefer the replicas and fall back to the leader, while the
// term-statistics exchange (which keeps every shard scoring with
// corpus-global IDF) always talks to leaders.
//
// The router must resolve concept names against the same world the
// shards were built on. It discovers (scale, seed) from the first
// shard manifest it can fetch and verifies every other reachable shard
// agrees; -scale/-seed are the fallback when no shard is up yet.
//
// Endpoints:
//
//	POST /v2/query/rollup      exact cross-shard roll-up (?partial=true
//	POST /v2/query/drilldown   opts into partial answers when shards
//	                           are down; otherwise failures are typed:
//	                           503 shard_unavailable, 504 deadline_exceeded)
//	GET  /v1/topics            answered from the router's own graph
//	GET  /v1/keywords/{c}      proxied to any live replica
//	GET  /healthz  GET /statsz
//
// Any other /v2 path answers ncserver's JSON 404 envelope, and a wrong
// method its JSON 405.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ncexplorer"
	"ncexplorer/internal/cluster"
	"ncexplorer/internal/segio"
)

// shardFlags collects repeated -shard flags, each a comma-separated
// replica list with the leader first.
type shardFlags [][]string

func (s *shardFlags) String() string { return fmt.Sprint([][]string(*s)) }

func (s *shardFlags) Set(v string) error {
	var replicas []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("shard replica %q: want an http(s) base URL", u)
		}
		replicas = append(replicas, u)
	}
	if len(replicas) == 0 {
		return errors.New("empty -shard replica list")
	}
	*s = append(*s, replicas)
	return nil
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	var shards shardFlags
	flag.Var(&shards, "shard", "one corpus shard's replica base URLs, leader first, comma-separated (repeatable)")
	scale := flag.String("scale", "default", "world scale fallback when no shard manifest is reachable at boot")
	seed := flag.Uint64("seed", 42, "world seed fallback when no shard manifest is reachable at boot")
	timeout := flag.Duration("timeout", 10*time.Second, "per-shard answer budget, all replica attempts included")
	maxK := flag.Int("maxk", 100, "maximum k accepted by query endpoints")
	syncInterval := flag.Duration("sync-interval", 2*time.Second, "term-statistics exchange cadence across shard leaders")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "drain deadline for graceful shutdown")
	flag.Parse()

	if len(shards) == 0 {
		log.Fatal("at least one -shard replica list is required")
	}

	worldScale, worldSeed := discoverWorld(shards, *scale, *seed)
	start := time.Now()
	world, err := ncexplorer.NewQueryWorld(worldScale, worldSeed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("world graph ready in %.1fs (%s, seed %d)", time.Since(start).Seconds(), worldScale, worldSeed)

	rt := &cluster.Router{
		World:   world,
		Shards:  shards,
		Timeout: *timeout,
		MaxK:    *maxK,
		Logf:    log.Printf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The first exchange runs before serving so the earliest queries
	// already score with corpus-global statistics; failures are retried
	// on the timer, and the generation barrier protects correctness in
	// the meantime.
	if err := rt.SyncStats(ctx); err != nil {
		log.Printf("initial stats sync: %v (retrying every %s)", err, *syncInterval)
	}
	go rt.RunStatsSync(ctx, *syncInterval)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	drained := make(chan struct{})
	var shutdownErr error
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		shutdownErr = httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("routing %d shard(s) on %s behind the server query front door (POST /v2/query/rollup, "+
		"POST /v2/query/drilldown, GET /v1/topics, GET /v1/keywords/{concept}, GET /healthz, GET /statsz)",
		len(shards), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	if shutdownErr != nil {
		log.Printf("shutdown: drain incomplete: %v", shutdownErr)
		os.Exit(1)
	}
	log.Print("shut down cleanly")
}

// discoverWorld asks the shards which world they were built on: every
// leader's manifest records the synthetic-world scale and the engine
// seed, and equal (scale, seed) guarantees byte-identical graphs. The
// first reachable manifest wins; any other reachable shard that
// disagrees is a fatal misconfiguration (merging across different
// graphs would be silently wrong). When nothing is reachable — the
// router often boots first — the flag fallbacks apply.
func discoverWorld(shards [][]string, scale string, seed uint64) (string, uint64) {
	client := &http.Client{Timeout: 5 * time.Second}
	found := false
	var from string
	for _, replicas := range shards {
		for _, base := range replicas {
			m, err := fetchManifest(client, base)
			if err != nil {
				continue
			}
			mScale := m.World["scale"]
			if mScale == "" {
				continue
			}
			if !found {
				scale, seed, from, found = mScale, m.Engine.Seed, base, true
				break
			}
			if mScale != scale || m.Engine.Seed != seed {
				log.Fatalf("shard worlds disagree: %s is (%s, seed %d) but %s is (%s, seed %d)",
					from, scale, seed, base, mScale, m.Engine.Seed)
			}
			break
		}
	}
	if found {
		log.Printf("world discovered from %s: scale %s, seed %d", from, scale, seed)
	} else {
		log.Printf("no shard manifest reachable; using -scale %s -seed %d", scale, seed)
	}
	return scale, seed
}

// fetchManifest pulls and validates one node's snapshot manifest.
func fetchManifest(client *http.Client, base string) (*segio.Manifest, error) {
	resp, err := client.Get(base + "/internal/manifest")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET %s/internal/manifest: %s", base, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return segio.ParseManifest(data)
}
