package xrand

import "math"

// Zipf draws integers in [0, n) with P(k) proportional to 1/(k+1)^s.
// IP addresses and flow keys in real traces follow such skewed laws, so the
// synthetic feeds use Zipf-distributed address pools.
//
// The implementation precomputes the CDF for small n and uses rejection
// inversion (Hörmann) for large n; both are exact for their range. A guide
// table over the CDF narrows each draw's search to one bucket of u, so a
// draw costs O(1) on average however large the table.
type Zipf struct {
	r     *Rand
	n     uint64
	s     float64
	cdf   []float64 // small-n path
	guide []uint32  // guide[j]: first k with cdf[k] >= j/2^guideBits
	// rejection-inversion parameters (large-n path)
	oneMinusS     float64
	hx0           float64
	hImaxPlusHalf float64
	sDiv          float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
// It panics if n == 0 or s <= 0.
func NewZipf(r *Rand, s float64, n uint64) *Zipf {
	if n == 0 {
		panic("xrand: Zipf with n == 0")
	}
	if s <= 0 {
		panic("xrand: Zipf with s <= 0")
	}
	z := &Zipf{r: r, n: n, s: s}
	if n <= 1<<16 {
		z.cdf = make([]float64, n)
		sum := 0.0
		for k := uint64(0); k < n; k++ {
			sum += 1 / math.Pow(float64(k+1), s)
			z.cdf[k] = sum
		}
		for k := range z.cdf {
			z.cdf[k] /= sum
		}
		z.guide = make([]uint32, 1<<guideBits+1)
		k := 0
		for j := range z.guide {
			for k < len(z.cdf) && z.cdf[k] < float64(j)/(1<<guideBits) {
				k++
			}
			z.guide[j] = uint32(k)
		}
		return z
	}
	z.oneMinusS = 1 - s
	z.hx0 = z.h(0.5) - 1
	z.hImaxPlusHalf = z.h(float64(n) + 0.5)
	z.sDiv = 2 - z.hInv(z.h(1.5)-math.Pow(2, -s))
	return z
}

// guideBits sizes the guide table at 2^guideBits+1 entries (64 KB) for
// every CDF-path sampler: enough buckets that even the 65536-host pools'
// heavy tails leave only a few CDF entries per bucket to search.
const guideBits = 14

// search returns the first k with cdf[k] >= u, clamped to n-1, for the
// uniform u = x/2^53 (x < 2^53). The top guideBits bits of x are the
// bucket j with j/2^guideBits <= u < (j+1)/2^guideBits exactly, so the
// answer lies in [guide[j], guide[j+1]] and a binary search over that
// range, upper bound included, finds it.
func (z *Zipf) search(x uint64) uint64 {
	u := float64(x) * (1.0 / (1 << 53))
	j := x >> (53 - guideBits)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(z.cdf) {
		lo = len(z.cdf) - 1
	}
	return uint64(lo)
}

// h is the antiderivative used by rejection inversion.
func (z *Zipf) h(x float64) float64 {
	if z.oneMinusS == 0 {
		return math.Log(x)
	}
	return math.Pow(x, z.oneMinusS) / z.oneMinusS
}

func (z *Zipf) hInv(x float64) float64 {
	if z.oneMinusS == 0 {
		return math.Exp(x)
	}
	return math.Pow(x*z.oneMinusS, 1/z.oneMinusS)
}

// Uint64 returns the next Zipf variate in [0, n).
func (z *Zipf) Uint64() uint64 {
	if z.cdf != nil {
		// The same 53 bits Float64 would turn into u.
		return z.search(z.r.Uint64() >> 11)
	}
	for {
		u := z.hImaxPlusHalf + z.r.Float64()*(z.hx0-z.hImaxPlusHalf)
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.h(k+0.5)-math.Pow(k, -z.s) {
			return uint64(k) - 1
		}
	}
}
