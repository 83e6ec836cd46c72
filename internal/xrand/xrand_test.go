package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 42 and 43 agree on %d/100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(2)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7): value %d seen %d times, want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(4)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %g < 0", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %g, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(6)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %g, want ~1", variance)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(7)
	const n = 100000
	const alpha, xmin = 1.5, 10.0
	below := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(alpha, xmin)
		if v < xmin {
			t.Fatalf("Pareto < xmin: %g", v)
		}
		// P(X <= 2*xmin) = 1 - (1/2)^alpha ~= 0.6464
		if v <= 2*xmin {
			below++
		}
	}
	frac := float64(below) / n
	want := 1 - math.Pow(0.5, alpha)
	if math.Abs(frac-want) > 0.01 {
		t.Errorf("Pareto P(X<=2xmin) = %g, want %g", frac, want)
	}
}

func TestZipfSmallNDistribution(t *testing.T) {
	r := New(11)
	z := NewZipf(r, 1.0, 10)
	counts := make([]int, 10)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v >= 10 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and frequencies must be monotone non-increasing
	// (within noise).
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("Zipf head not dominant: %v", counts)
	}
	// Check rank-0 probability ~ (1/1)/H_10 where H_10 ~= 2.9290
	want := 1 / 2.9289682539682538
	got := float64(counts[0]) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Zipf P(0) = %g, want %g", got, want)
	}
}

func TestZipfLargeN(t *testing.T) {
	r := New(12)
	z := NewZipf(r, 1.2, 1<<24)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v >= 1<<24 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] < counts[1] {
		t.Errorf("large-n Zipf head not dominant: c0=%d c1=%d", counts[0], counts[1])
	}
	if len(counts) < 100 {
		t.Errorf("large-n Zipf produced only %d distinct values", len(counts))
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for name, fn := range map[string]func(){
		"n=0": func() { NewZipf(r, 1, 0) },
		"s=0": func() { NewZipf(r, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= r.Uint64()
	}
	_ = x
}

func BenchmarkZipfLarge(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1.1, 1<<24)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= z.Uint64()
	}
	_ = x
}

// refUint64n is Uint64n as it was before its division moved off the
// common path: the threshold computed on every call, checked on every
// draw, with a hand-written 128-bit product.
func refUint64n(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := refMul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

func refMul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// TestUint64nMatchesReference holds Uint64n to the threshold loop draw for
// draw: the same values and the same State after every call, since
// checkpoints store Rand state and replay from it.
func TestUint64nMatchesReference(t *testing.T) {
	ns := []uint64{1, 2, 3, 1000, 28000, 1<<32 + 1, 1<<63 + 1, 1<<64 - 1}
	pick := New(99)
	for i := 0; i < 8; i++ {
		ns = append(ns, pick.Uint64()>>(pick.Uint64()%64)|1)
	}
	for i, n := range ns {
		ref, got := New(uint64(i)), New(uint64(i))
		for d := 0; d < 100_000; d++ {
			want, v := refUint64n(ref, n), got.Uint64n(n)
			if v != want || got.State() != ref.State() {
				t.Fatalf("n=%d draw %d: Uint64n = %d, reference %d (state equal: %v)",
					n, d, v, want, got.State() == ref.State())
			}
		}
	}
}
