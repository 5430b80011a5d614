package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	t.Parallel()
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependentOfDrawOrder(t *testing.T) {
	t.Parallel()
	parent1 := New(7)
	parent2 := New(7)
	parent2.Uint64() // consume a draw; Split must not care
	c1 := parent1.Split("child")
	c2 := parent2.Split("child")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split result depends on parent draw position")
		}
	}
}

// TestForkValueMatchesFork checks that a stream forked by value, as a
// table row holds it, draws and forks exactly as the heap-allocated
// Fork of the same id.
func TestForkValueMatchesFork(t *testing.T) {
	parent := New(11)
	parent.Uint64() // a parent's draws must not matter
	for _, id := range []uint64{0, 1, 42, 1 << 40} {
		byPtr, byVal := parent.Fork(id), parent.ForkValue(id)
		if byPtr.State() != byVal.State() {
			t.Fatalf("Fork(%d) state %+v, ForkValue %+v", id, byPtr.State(), byVal.State())
		}
		for i := 0; i < 8; i++ {
			if a, b := byPtr.Uint64(), byVal.Uint64(); a != b {
				t.Fatalf("Fork(%d) draw %d: %d by pointer, %d by value", id, i, a, b)
			}
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	t.Parallel()
	p := New(7)
	a, b := p.Split("a"), p.Split("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("different labels produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	t.Parallel()
	r := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	t.Parallel()
	// Chi-square-ish sanity check over 7 buckets (non power of two).
	r := New(5)
	const n, buckets = 70000, 7
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", b, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	t.Parallel()
	r := New(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if r.Bool(-0.5) {
		t.Fatal("Bool(-0.5) returned true")
	}
	if !r.Bool(1.5) {
		t.Fatal("Bool(1.5) returned false")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	t.Parallel()
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	t.Parallel()
	for _, mean := range []float64{0.5, 3, 12, 80} {
		r := New(uint64(mean * 100))
		const n = 50000
		total := 0
		for i := 0; i < n; i++ {
			total += r.Poisson(mean)
		}
		got := float64(total) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) sample mean %.3f", mean, got)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	if New(1).Poisson(-3) != 0 {
		t.Fatal("Poisson(-3) != 0")
	}
}

func TestLogNormalPositive(t *testing.T) {
	t.Parallel()
	r := New(9)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(2, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	t.Parallel()
	r := New(10)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %.4f", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := New(uint64(n)).Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	t.Parallel()
	check := func(seed uint16, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 5) // sometimes k > n
		s := New(uint64(seed)).Sample(n, k)
		wantLen := k
		if k >= n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	t.Parallel()
	r := New(11)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle altered multiset: sum %d != %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Float64()
	}
}
