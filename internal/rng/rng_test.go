package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedRestartsStream(t *testing.T) {
	var r Source
	for _, seed := range []uint64{42, 0, 42} {
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 100; i++ {
			if r.Uint64() != want.Uint64() {
				t.Fatalf("seed %d: Seed's stream diverged from New's at step %d", seed, i)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d has %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	r := New(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(23)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d/100 identical", same)
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	r := New(29)
	if g := r.Geometric(0); g != Never {
		t.Fatalf("Geometric(0) = %d, want Never", g)
	}
	if g := r.Geometric(-0.5); g != Never {
		t.Fatalf("Geometric(-0.5) = %d, want Never", g)
	}
	if g := r.Geometric(1); g != 1 {
		t.Fatalf("Geometric(1) = %d, want 1", g)
	}
	if g := r.Geometric(1.5); g != 1 {
		t.Fatalf("Geometric(1.5) = %d, want 1", g)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(31)
	for _, p := range []float64{0.9, 0.5, 0.1, 0.01} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / n
		want := 1 / p
		if math.Abs(mean-want) > 0.05*want {
			t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
		}
	}
}

// TestGeometricInvLogIsGeometric: with invLog = 1/ln(1-p) the cached form
// consumes the stream exactly as Geometric does and returns the same
// draws; the limits of invLog carry p = 0 and p = 1.
func TestGeometricInvLogIsGeometric(t *testing.T) {
	for _, p := range []float64{0.9, 0.5, 0.1, 0.01, 1e-6} {
		a, b := New(53), New(53)
		invLog := 1 / math.Log1p(-p)
		for i := 0; i < 10000; i++ {
			if x, y := a.Geometric(p), b.GeometricInvLog(invLog); x != y {
				t.Fatalf("p=%v draw %d: Geometric %d, GeometricInvLog %d", p, i, x, y)
			}
		}
	}
	r := New(59)
	for i := 0; i < 1000; i++ {
		if g := r.GeometricInvLog(math.Inf(-1)); g != Never {
			t.Fatalf("GeometricInvLog(-Inf) = %d, want Never", g)
		}
		if g := r.GeometricInvLog(math.Copysign(0, -1)); g != 1 {
			t.Fatalf("GeometricInvLog(-0) = %d, want 1", g)
		}
	}
}

func TestGeometricAtLeastOne(t *testing.T) {
	r := New(37)
	f := func(praw uint16) bool {
		p := float64(praw)/65535*0.999 + 0.001
		return r.Geometric(p) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(41)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestUniformIn(t *testing.T) {
	r := New(43)
	if v := r.UniformIn(0); v != 0 {
		t.Fatalf("UniformIn(0) = %v, want 0", v)
	}
	for i := 0; i < 1000; i++ {
		v := r.UniformIn(0.4)
		if v < 0 || v >= 0.4 {
			t.Fatalf("UniformIn(0.4) = %v out of range", v)
		}
	}
}

// TestGeometricMatchesBernoulliCounts is the Lemma 6 identity at the RNG
// level: the number of successes among theta Bernoulli(p) trials has the
// same distribution as the largest Y with X_1+...+X_Y <= theta for i.i.d.
// geometric X_i. We compare empirical means and variances.
func TestGeometricMatchesBernoulliCounts(t *testing.T) {
	const theta = 200
	const runs = 20000
	p := 0.07
	r := New(47)

	bernMean, bernM2 := runMoments(runs, func() float64 {
		c := 0
		for i := 0; i < theta; i++ {
			if r.Bernoulli(p) {
				c++
			}
		}
		return float64(c)
	})
	geoMean, geoM2 := runMoments(runs, func() float64 {
		var sum int64
		y := 0
		for {
			x := r.Geometric(p)
			if sum+x > theta {
				break
			}
			sum += x
			y++
		}
		return float64(y)
	})

	if math.Abs(bernMean-geoMean) > 0.05*bernMean {
		t.Fatalf("means differ: bernoulli %v vs geometric %v", bernMean, geoMean)
	}
	if math.Abs(bernM2-geoM2) > 0.15*bernM2 {
		t.Fatalf("variances differ: bernoulli %v vs geometric %v", bernM2, geoM2)
	}
}

func runMoments(n int, f func() float64) (mean, variance float64) {
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := f()
		sum += v
		sq += v * v
	}
	mean = sum / float64(n)
	variance = sq/float64(n) - mean*mean
	return mean, variance
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(0.1)
	}
}
