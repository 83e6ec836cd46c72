package main

import (
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5}); s != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", s)
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, q2, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

// The tail percentile a sample supports is the highest with at least ten
// samples beyond it, and never above p99.
func TestTailNeedsTenBeyond(t *testing.T) {
	if k := tailRank(1000); k != 990 {
		t.Errorf("n=1000: rank %d, want 990 (p99, ten beyond)", k)
	}
	if k := tailRank(5000); k != 4950 {
		t.Errorf("n=5000: rank %d, want the p99 cap 4950", k)
	}
	if k := tailRank(999); k != 989 {
		t.Errorf("n=999 must settle below p99: rank %d, want 989", k)
	}
	if k := tailRank(500); k != 490 {
		t.Errorf("n=500: rank %d, want 490 (p98)", k)
	}
	if k := tailRank(12); k != 6 {
		t.Errorf("n=12 supports no tail: rank %d, want the median's 6", k)
	}
	for n := 21; n <= 3000; n++ {
		k := tailRank(n)
		if n-k < 10 {
			t.Fatalf("n=%d: rank %d leaves %d beyond", n, k, n-k)
		}
		if n >= 1000 && float64(k-1)/float64(n) >= 0.99 {
			t.Fatalf("n=%d: rank %d is above the nearest-rank p99", n, k)
		}
		if n < 1000 && n-k != 10 {
			t.Fatalf("n=%d: rank %d is not the highest with ten beyond", n, k)
		}
	}
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(200 - i)
	}
	if val, q, n, past := tail(v); n != 200 || q != 0.95 || val != 190 || past != 10 {
		t.Errorf("tail(200..1) = %v at %v of %d with %d beyond, want 190 at 0.95 of 200 with 10", val, q, n, past)
	}
	if val, _, n, _ := tail(nil); val != 0 || n != 0 {
		t.Errorf("tail(nil) = %v of %d", val, n)
	}
}
