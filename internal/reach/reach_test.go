package reach

import (
	"slices"
	"sync"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/xrand"
)

// chain builds a path graph a0—a1—…—a5.
func chain(t testing.TB, n int) (*kg.Graph, []kg.NodeID) {
	t.Helper()
	b := kg.NewBuilder()
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = b.AddInstance("a" + string(rune('0'+i)))
	}
	for i := 1; i < n; i++ {
		b.AddInstanceEdge(ids[i-1], ids[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// randomGraph builds n instances and the given number of random edges
// (self-loops and duplicates included, so some nodes stay isolated).
func randomGraph(t testing.TB, r *xrand.Rand, n, edges int) (*kg.Graph, []kg.NodeID) {
	t.Helper()
	b := kg.NewBuilder()
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = b.AddInstance("n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)))
	}
	for e := 0; e < edges; e++ {
		b.AddInstanceEdge(ids[r.Intn(n)], ids[r.Intn(n)])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// dense paints v's table into a fresh array — the view a walk reads.
func dense(ix *Index, v kg.NodeID) []int16 {
	d := make([]int16, ix.g.NumNodes())
	for i := range d {
		d[i] = Unreachable
	}
	ix.Table(v).Paint(d)
	return d
}

// bfs is the test-local dense reference: the capped-distance table the
// index stored before it went sparse.
func bfs(g *kg.Graph, v kg.NodeID, k int) []int16 {
	d := make([]int16, g.NumNodes())
	for i := range d {
		d[i] = Unreachable
	}
	d[v] = 0
	frontier := []kg.NodeID{v}
	for depth := 1; depth <= k; depth++ {
		var next []kg.NodeID
		for _, x := range frontier {
			for _, y := range g.InstanceNeighbors(x) {
				if d[y] == Unreachable {
					d[y] = int16(depth)
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return d
}

// checkScratchClean drains the scratch pool and verifies every array in
// it is all-Unreachable: a mark left behind by a build or an un-paint
// would silently widen some later walk's eligible set.
func checkScratchClean(t *testing.T, ix *Index) {
	t.Helper()
	for i := 0; i < 4; i++ {
		for x, d := range ix.Scratch() {
			if d != Unreachable {
				t.Fatalf("pooled scratch has stale mark %d at node %d", d, x)
			}
		}
	}
}

func TestDistTo(t *testing.T) {
	g, ids := chain(t, 6)
	ix := New(g, 3)
	d := dense(ix, ids[0])
	want := []int16{0, 1, 2, 3, Unreachable, Unreachable}
	for i, w := range want {
		if d[ids[i]] != w {
			t.Errorf("dist(a%d→a0) = %d, want %d", i, d[ids[i]], w)
		}
	}
	tab := ix.Table(ids[0])
	if len(tab.Nodes) != 4 || len(tab.Dist) != 4 {
		t.Fatalf("table holds %d/%d entries, want the 4 reachable nodes", len(tab.Nodes), len(tab.Dist))
	}
	tab.Unpaint(d)
	for x, v := range d {
		if v != Unreachable {
			t.Errorf("un-paint left %d at node %d", v, x)
		}
	}
	checkScratchClean(t, ix)
}

// within reports whether v's table puts x at most r hops away.
func within(ix *Index, x, v kg.NodeID, r int) bool {
	t := ix.Table(v)
	i, ok := slices.BinarySearch(t.Nodes, x)
	return ok && int(t.Dist[i]) <= r
}

func TestWithin(t *testing.T) {
	g, ids := chain(t, 6)
	ix := New(g, 3)
	cases := []struct {
		x, v kg.NodeID
		r    int
		want bool
	}{
		{ids[2], ids[0], 2, true},
		{ids[2], ids[0], 1, false},
		{ids[3], ids[0], 3, true},
		{ids[4], ids[0], 3, false}, // distance 4 > k
		{ids[4], ids[0], 9, false}, // the table stops at k
		{ids[0], ids[0], 0, true},
		{ids[1], ids[0], -1, false},
	}
	for _, c := range cases {
		if got := within(ix, c.x, c.v, c.r); got != c.want {
			t.Errorf("Within(%d,%d,%d) = %v, want %v", c.x, c.v, c.r, got, c.want)
		}
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	g, _ := chain(t, 2)
	for _, k := range []int{0, -1, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(k=%d) did not panic", k)
				}
			}()
			New(g, k)
		}()
	}
}

// TestCacheAndEviction pins the byte budget: the cache never stays over
// it, the table just built survives its own admission, a table larger
// than the whole budget is still served (alone), and an evicted target
// rebuilds to the same answer.
func TestCacheAndEviction(t *testing.T) {
	g, ids := chain(t, 6)
	ix := New(g, 2)
	ix.budget = 40 // a0: 3 entries, a1: 4, a2: 5 → 15 + 20 + 25 bytes
	ix.Table(ids[0])
	ix.Table(ids[1])
	if st := ix.Stats(); st.Tables != 2 || st.Bytes != 35 || st.Builds != 2 {
		t.Fatalf("before eviction: %+v", st)
	}
	ix.Table(ids[2]) // 60 bytes > 40: one or both older tables go
	st := ix.Stats()
	if st.Bytes > ix.budget || st.Tables < 1 || st.Tables > 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	ix.Table(ids[2])
	if got := ix.Stats(); got.Hits != 1 || got.Builds != 3 {
		t.Fatalf("newest table was evicted by its own admission: %+v", got)
	}
	for _, v := range ids {
		if got, want := dense(ix, v), bfs(g, v, 2); !slices.Equal(got, want) {
			t.Fatalf("post-eviction table for %d = %v, want %v", v, got, want)
		}
		if st := ix.Stats(); st.Bytes > ix.budget {
			t.Fatalf("over budget after target %d: %+v", v, st)
		}
	}

	ix.budget = 1
	tab := ix.Table(ids[3])
	if st := ix.Stats(); st.Tables != 1 || st.Bytes != int64(len(tab.Nodes))*5 {
		t.Fatalf("oversized table should be resident alone: %+v", st)
	}
	checkScratchClean(t, ix)
}

func TestTableStability(t *testing.T) {
	g, ids := chain(t, 4)
	ix := New(g, 2)
	if ix.Table(ids[0]) != ix.Table(ids[0]) {
		t.Error("cached table should be shared")
	}
	if st := ix.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want one build and one hit", st)
	}
}

func TestPrecompute(t *testing.T) {
	g, ids := chain(t, 5)
	ix := New(g, 2)
	bytes := ix.Precompute(ids[:3])
	st := ix.Stats()
	if st.Tables != 3 || st.Builds != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// a0 reaches 3 nodes within 2 hops, a1 4, a2 5: resident bytes are
	// entries × 5, not NumNodes × 2 per target.
	if want := int64(3+4+5) * 5; bytes != want || st.Bytes != want {
		t.Fatalf("bytes = %d (stats %d), want %d", bytes, st.Bytes, want)
	}
}

// TestDistMatchesBFSOnRandomGraphs is the bit-identity property: for
// every target of a random graph — isolated nodes and x = v included —
// and k ∈ {1, 2, 3}, the painted sparse table equals the dense BFS
// table node for node, its entries are sorted and unique, and
// un-painting restores a clean scratch.
func TestDistMatchesBFSOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g, ids := randomGraph(t, xrand.New(seed), 30, 25+int(seed)*5)
		for k := 1; k <= 3; k++ {
			ix := New(g, k)
			if seed%2 == 1 {
				ix.budget = 64 // force eviction churn on half the seeds
			}
			isolated := 0
			for _, v := range ids {
				tab := ix.Table(v)
				if !slices.IsSorted(tab.Nodes) || len(slices.Compact(slices.Clone(tab.Nodes))) != len(tab.Nodes) {
					t.Fatalf("seed %d k %d target %d: nodes not sorted-unique: %v", seed, k, v, tab.Nodes)
				}
				if len(tab.Nodes) == 1 {
					isolated++
				}
				got, want := dense(ix, v), bfs(g, v, k)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d k %d target %d:\n got %v\nwant %v", seed, k, v, got, want)
				}
				if got[v] != 0 {
					t.Fatalf("seed %d k %d: dist(v, v) = %d", seed, k, got[v])
				}
			}
			if seed == 0 && isolated == 0 {
				t.Fatal("sparsest graph has no isolated target; the property lost a case")
			}
			checkScratchClean(t, ix)
		}
	}
}

// TestConcurrentAccess hammers one index from many goroutines, with a
// budget small enough that tables are evicted and rebuilt throughout,
// and checks every answer against the dense reference.
func TestConcurrentAccess(t *testing.T) {
	g, ids := randomGraph(t, xrand.New(3), 40, 80)
	const k = 3
	want := make([][]int16, len(ids))
	for i, v := range ids {
		want[i] = bfs(g, v, k)
	}
	ix := New(g, k)
	ix.budget = 200
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := ix.Scratch()
			for i := 0; i < 300; i++ {
				j := (w*7 + i) % len(ids)
				tab := ix.Table(ids[j])
				tab.Paint(d)
				if !slices.Equal(d, want[j]) {
					t.Errorf("worker %d target %d: wrong table", w, j)
				}
				tab.Unpaint(d)
			}
			ix.Recycle(d)
		}(w)
	}
	wg.Wait()
	if st := ix.Stats(); st.Bytes > ix.budget || st.Builds <= int64(len(ids)) {
		t.Errorf("expected eviction churn under the byte budget: %+v", st)
	}
	checkScratchClean(t, ix)
}

// TestConcurrentMissesShareOneBuild: workers that miss on the same
// target at the same moment must not each run the BFS.
func TestConcurrentMissesShareOneBuild(t *testing.T) {
	g, ids := randomGraph(t, xrand.New(5), 40, 80)
	ix := New(g, 3)
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, v := range ids {
				ix.Table(v)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := ix.Stats()
	if st.Builds != int64(len(ids)) || st.Tables != int64(len(ids)) {
		t.Errorf("builds = %d, tables = %d, want %d each", st.Builds, st.Tables, len(ids))
	}
	if st.Hits != int64((workers-1)*len(ids)) {
		t.Errorf("hits = %d, want %d", st.Hits, (workers-1)*len(ids))
	}
}

// BenchmarkDistToCold times a cold table build — BFS over pooled
// scratch, sort, sparse copy — on a 5,000-node graph at k = 2. The
// only allocations left are the table itself and the BFS queue.
func BenchmarkDistToCold(b *testing.B) {
	const n = 5000
	g, ids := randomGraph(b, xrand.New(1), n, n*4)
	ix := New(g, 2)
	ix.budget = 0 // every table evicts the last: each call is a cold build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Table(ids[i%n])
	}
}
