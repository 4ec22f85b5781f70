package qcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPutGetLRUEviction(t *testing.T) {
	c := New(1, 2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Fatalf("b = %v, %v; want 2, true", v, ok)
	}
	// b is now most recently used, so adding d evicts c.
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c should have been evicted after b was promoted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b should have survived")
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d; want 2", st.Evictions)
	}
	if st.Entries != 2 || c.Len() != 2 {
		t.Fatalf("entries = %d, len = %d; want 2, 2", st.Entries, c.Len())
	}
}

func TestPutOverwrite(t *testing.T) {
	c := New(1, 2)
	c.Put("k", "old")
	c.Put("k", "new")
	if v, _ := c.Get("k"); v.(string) != "new" {
		t.Fatalf("got %v; want new", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d; want 1", c.Len())
	}
}

func TestDoMissThenHit(t *testing.T) {
	c := New(4, 8)
	calls := 0
	fill := func() (any, error) { calls++; return "value", nil }
	v, hit, err := c.Do("k", fill)
	if err != nil || hit || v.(string) != "value" {
		t.Fatalf("first Do = %v, %v, %v; want value, false, nil", v, hit, err)
	}
	v, hit, err = c.Do("k", fill)
	if err != nil || !hit || v.(string) != "value" {
		t.Fatalf("second Do = %v, %v, %v; want value, true, nil", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times; want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss", st)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(1, 8)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do("k", func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result must not be cached")
	}
	v, hit, err := c.Do("k", func() (any, error) { calls++; return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry Do = %v, %v, %v; want 7, false, nil", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times; want 2", calls)
	}
}

func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New(1, 8)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do("k", func() (any, error) {
			close(entered)
			<-release
			panic("poisoned fill")
		})
	}()
	<-entered
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (any, error) { return nil, nil })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter coalesce
	close(release)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("coalesced waiter should observe the panic as an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter deadlocked on panicking fill")
	}
	if c.Len() != 0 {
		t.Fatal("panicking fill must not populate the cache")
	}
}

// TestSingleflight launches many concurrent Do calls for one cold key
// and requires that exactly one executes the fill. Run with -race.
func TestSingleflight(t *testing.T) {
	c := New(8, 16)
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	fill := func() (any, error) {
		calls.Add(1)
		close(entered)
		<-release
		return "shared", nil
	}

	first := make(chan string, 1)
	go func() {
		v, _, _ := c.Do("hot", fill)
		first <- v.(string)
	}()
	<-entered // fill is in flight; everyone below must coalesce or hit

	const waiters = 50
	results := make(chan string, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, served, err := c.Do("hot", fill)
			if err != nil {
				t.Error(err)
				return
			}
			if !served {
				t.Error("waiter should not have executed the fill")
			}
			results <- v.(string)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let waiters reach the coalesce path
	close(release)
	wg.Wait()
	close(results)

	if got := <-first; got != "shared" {
		t.Fatalf("first caller got %q", got)
	}
	for v := range results {
		if v != "shared" {
			t.Fatalf("waiter got %q; want shared", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fill executed %d times; want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != waiters {
		t.Fatalf("stats = %+v; want 1 miss and %d hits+coalesced", st, waiters)
	}
}

func TestCapacityZeroCoalescesButDoesNotStore(t *testing.T) {
	c := New(2, 0)
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := c.Do("k", func() (any, error) { calls++; return calls, nil })
		if err != nil || hit {
			t.Fatalf("Do %d = %v, hit=%v; storage is disabled", i, v, hit)
		}
	}
	if calls != 3 || c.Len() != 0 {
		t.Fatalf("calls = %d, len = %d; want 3, 0", calls, c.Len())
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		c := New(tc.in, 1)
		if len(c.shards) != tc.want {
			t.Fatalf("New(%d) built %d shards; want %d", tc.in, len(c.shards), tc.want)
		}
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	c := New(8, 32)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%50)
				switch i % 3 {
				case 0:
					c.Do(key, func() (any, error) { return i, nil })
				case 1:
					c.Get(key)
				default:
					c.Put(key, g)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8*32 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

func BenchmarkDoHit(b *testing.B) {
	c := New(8, 64)
	c.Put("k", []byte("payload"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do("k", func() (any, error) { return nil, nil })
	}
}

func BenchmarkDoHitParallel(b *testing.B) {
	c := New(16, 64)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		c.Put(keys[i], i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Do(keys[i%len(keys)], func() (any, error) { return nil, nil })
			i++
		}
	})
}
