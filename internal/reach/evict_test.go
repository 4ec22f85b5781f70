package reach_test

import (
	"math"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/reach"
	"ncexplorer/internal/rw"
	"ncexplorer/internal/xrand"
)

// TestEvictionChangesNoSample: an estimator over an index whose budget
// holds barely one table — so the table it has painted is routinely
// evicted underneath it, and un-painting must use the table it painted
// with, not whatever the cache holds now — draws the same samples as
// one over an index that never evicts. (rw's own tests pin the
// never-evicting estimator to the dense reference; this closes the
// chain. It lives here because only this package can shrink the
// budget.)
func TestEvictionChangesNoSample(t *testing.T) {
	const beta = 0.5
	for tau := 2; tau <= 3; tau++ {
		r := xrand.New(uint64(tau))
		g, ids := reach.RandomGraph(t, r, 70, 180)
		roomy, tight := reach.New(g, tau), reach.New(g, tau)
		tight.SetBudget(1)
		a, c := rw.New(g, roomy, tau, beta), rw.New(g, tight, tau, beta)
		r1, r2 := xrand.New(77), xrand.New(77)
		targets := []kg.NodeID{ids[3], ids[41], ids[17]}
		for step := 0; step < 600; step++ {
			v := targets[[]int{0, 1, 0, 2, 1}[step%5]]
			if step%23 == 22 {
				targets[r.Intn(3)] = ids[r.Intn(len(ids))]
			}
			ext := make([]kg.NodeID, 1+r.Intn(10))
			for i := range ext {
				ext[i] = ids[r.Intn(len(ids))]
			}
			var got, want float64
			if step%2 == 0 {
				got, want = c.EstimateConcept(r2, ext, v, 6), a.EstimateConcept(r1, ext, v, 6)
			} else {
				got, want = c.EstimateConcept(r2, ext[:1], v, 1), a.EstimateConcept(r1, ext[:1], v, 1)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tau %d step %d: %v under eviction, %v without", tau, step, got, want)
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("tau %d: random streams diverged", tau)
		}
		rs, ts := roomy.Stats(), tight.Stats()
		if ts.Tables != 1 || ts.Builds <= rs.Builds {
			t.Fatalf("tau %d: tight index did not evict: tight %+v, roomy %+v", tau, ts, rs)
		}
	}
}
