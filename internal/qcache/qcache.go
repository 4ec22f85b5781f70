// Package qcache is a sharded LRU result cache with singleflight
// request coalescing, the speed-at-scale layer between NCExplorer's
// HTTP handlers and the query engine.
//
// The cache answers two serving problems at once:
//
//   - Repeat queries. Analysts revisit the same concept patterns
//     constantly (the paper's Fig. 1 workflow is a loop), so identical
//     (query, k) pairs should cost one engine call ever, not one per
//     request. Entries live in per-shard LRU lists so hot queries stay
//     resident under memory pressure.
//   - Thundering herds. N concurrent requests for the same cold key
//     must not launch N engine calls. Do coalesces them: the first
//     caller computes, the rest block on the in-flight call and share
//     its result.
//
// Keys are opaque strings; callers are responsible for canonicalizing
// them (see ncexplorer.RollUpRequest.Key). Values are opaque too — the HTTP
// layer stores fully marshaled JSON bodies so cache hits are
// byte-identical to the miss that populated them.
//
// All methods are safe for concurrent use. The zero Cache is not
// usable; construct with New.
package qcache

import (
	"container/list"
	"errors"
	"sync"
)

// errFillPanicked is what coalesced waiters observe when the filling
// goroutine's fn panicked instead of returning.
var errFillPanicked = errors.New("qcache: fill function panicked")

// Stats is a point-in-time snapshot of cache effectiveness counters,
// summed across shards.
type Stats struct {
	// Hits counts Get/Do calls answered from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts Get lookups that found no resident entry and Do
	// calls that executed their fill. Do calls that piggybacked on
	// another caller's fill count under Coalesced instead, so total
	// lookups = Hits + Misses + Coalesced.
	Misses int64 `json:"misses"`
	// Coalesced counts Do calls that piggybacked on another caller's
	// in-flight fill instead of executing their own.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped to respect shard capacity.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of resident entries.
	Entries int64 `json:"entries"`
}

type entry struct {
	key string
	val any
}

// call is one in-flight fill shared by coalesced callers.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

type shard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call

	hits, misses, coalesced, evictions int64
}

// Cache is a sharded LRU cache with singleflight coalescing.
type Cache struct {
	shards []*shard
	mask   uint32
}

// New returns a cache with the given shard count (rounded up to a
// power of two, minimum 1) and per-shard entry capacity. A capacity
// <= 0 disables storage: Do still coalesces concurrent identical
// calls, but nothing is retained after the fill completes.
func New(shards, capacityPerShard int) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]*shard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: capacityPerShard,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
			inflight: make(map[string]*call),
		}
	}
	return c
}

// fnv-1a; inlined to keep the hot path allocation-free.
func hash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shard(key string) *shard { return c.shards[hash(key)&c.mask] }

// Get returns the cached value for key, promoting it to most recently
// used. It does not coalesce; use Do for read-through access.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*entry).val, true
	}
	s.misses++
	return nil, false
}

// Put stores val under key, evicting least-recently-used entries as
// needed. A no-op when the cache was built with capacity <= 0.
func (c *Cache) Put(key string, val any) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, val)
}

// put stores under s.mu.
func (s *shard) put(key string, val any) {
	if s.capacity <= 0 {
		return
	}
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, val: val})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		s.evictions++
	}
}

// Do returns the value for key, computing it with fn on a miss.
// Concurrent Do calls for the same key are coalesced: exactly one
// executes fn, the rest wait and share its result. The second return
// value reports whether this caller was served without running fn
// (a resident hit or a coalesced wait). Errors are propagated to every
// waiting caller and are never cached.
func (c *Cache) Do(key string, fn func() (any, error)) (any, bool, error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		v := el.Value.(*entry).val
		s.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		cl.wg.Wait()
		return cl.val, true, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	s.inflight[key] = cl
	s.misses++
	s.mu.Unlock()

	// Release waiters even if fn panics, so a poisoned key cannot
	// deadlock every coalesced caller; the panic then propagates. The
	// pre-set error means a panicking fill is reported as an error to
	// waiters and never cached.
	cl.err = errFillPanicked
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		if cl.err == nil {
			s.put(key, cl.val)
		}
		s.mu.Unlock()
		cl.wg.Done()
	}()
	cl.val, cl.err = fn()
	return cl.val, false, cl.err
}

// Len returns the current number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats sums effectiveness counters across shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Coalesced += s.coalesced
		out.Evictions += s.evictions
		out.Entries += int64(s.ll.Len())
		s.mu.Unlock()
	}
	return out
}
