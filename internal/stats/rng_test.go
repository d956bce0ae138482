package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(12345)
	b := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, got, want)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws out of 100", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v deviates from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(31)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v deviates from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v deviates from 1", variance)
	}
}

func TestGaussianScaling(t *testing.T) {
	r := NewRNG(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Gaussian(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("Gaussian(10,2) mean %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestNormFloat64TailFractions checks the ziggurat sampler's distribution
// shape beyond the first two moments: the mass outside ±1σ/±2σ/±3σ must
// match the normal law, and the sign must be symmetric. A ziggurat with a
// mis-built table typically passes a moments test but fails the 3σ tail.
func TestNormFloat64TailFractions(t *testing.T) {
	rng := NewRNG(77)
	const n = 400000
	var beyond1, beyond2, beyond3, pos int
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		a := math.Abs(x)
		if a > 1 {
			beyond1++
		}
		if a > 2 {
			beyond2++
		}
		if a > 3 {
			beyond3++
		}
		if x > 0 {
			pos++
		}
	}
	for _, tc := range []struct {
		got  int
		want float64
		tol  float64
	}{
		{beyond1, 0.31731, 0.005},
		{beyond2, 0.04550, 0.002},
		{beyond3, 0.00270, 0.0005},
		{pos, 0.5, 0.005},
	} {
		frac := float64(tc.got) / n
		if math.Abs(frac-tc.want) > tc.tol {
			t.Fatalf("tail fraction %.5f, want %.5f ± %.4f", frac, tc.want, tc.tol)
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	rng := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rng.NormFloat64()
	}
	_ = sink
}
