package xrand

import (
	"fmt"
	"testing"
)

// lowerBound is the guide-free reference for Zipf.search: the first k with
// cdf[k] >= x/2^53 over the whole table, clamped to the last index.
func lowerBound(cdf []float64, x uint64) uint64 {
	u := float64(x) * (1.0 / (1 << 53))
	lo, hi := 0, len(cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(cdf) {
		lo = len(cdf) - 1
	}
	return uint64(lo)
}

// TestZipfSearchMatchesLowerBound drives the guided search with exact
// 53-bit draws where a guide table can go wrong: each bucket's first draw
// and the draw just below it, each CDF entry's own value as u (the
// cdf[mid] < u tie rule) and its neighbours, and a seeded sweep.
func TestZipfSearchMatchesLowerBound(t *testing.T) {
	const top = 1<<53 - 1
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, n := range []uint64{1, 2, 3, 1024, 8192, 65535, 65536} {
		for _, s := range []float64{0.5, 1, 1.05, 1.1, 1.2, 3} {
			z := NewZipf(New(1), s, n)
			check := func(x uint64) {
				if got, want := z.search(x), lowerBound(z.cdf, x); got != want {
					t.Fatalf("n=%d s=%g x=%#x: search = %d, lower bound = %d", n, s, x, got, want)
				}
			}
			for j := uint64(0); j < 1<<guideBits; j++ {
				x := j << (53 - guideBits)
				check(x)
				if x > 0 {
					check(x - 1)
				}
			}
			check(top)
			for _, c := range z.cdf {
				x := uint64(c * (1 << 53)) // exact when c >= 1/2
				for _, d := range []uint64{x - 1, x, x + 1} {
					if d <= top {
						check(d)
					}
				}
			}
			r := New(n*1000 + uint64(s*100))
			for i := 0; i < draws; i++ {
				check(r.Uint64() >> 11)
			}
		}
	}
}

func BenchmarkZipf(b *testing.B) {
	for _, n := range []uint64{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(New(1), 1.1, n)
			var x uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x ^= z.Uint64()
			}
			sinkUint64 = x
		})
	}
}

var sinkUint64 uint64
