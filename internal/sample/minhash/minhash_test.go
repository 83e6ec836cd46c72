package minhash

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"streamop/internal/xrand"
)

// hashUint64 hashes a 64-bit key to a uniform 64-bit value (a
// splitmix64-style mixer); the tests' sets are ranges of such keys.
func hashUint64(x, seed uint64) uint64 {
	x ^= seed * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// signature returns the k smallest distinct hashes of the keys [lo, hi)
// in increasing order: the signature a k-minimum-values sketch of that
// set retains.
func signature(lo, hi, seed uint64, k int) []uint64 {
	var hs []uint64
	for x := lo; x < hi; x++ {
		hs = append(hs, hashUint64(x, seed))
	}
	slices.Sort(hs)
	hs = slices.Compact(hs)
	if len(hs) > k {
		hs = hs[:k]
	}
	return hs
}

func TestResemblanceIdenticalAndDisjoint(t *testing.T) {
	a := signature(0, 1000, 9, 64)
	b := signature(0, 1000, 9, 64)
	if got := Resemblance(a, b, 64); got != 1 {
		t.Errorf("identical sets resemblance = %v", got)
	}
	c := signature(5000, 6000, 9, 64)
	if got := Resemblance(a, c, 64); got > 0.05 {
		t.Errorf("disjoint sets resemblance = %v", got)
	}
	if got := Resemblance(nil, nil, 64); got != 1 {
		t.Errorf("empty-empty resemblance = %v", got)
	}
}

func TestResemblanceEstimatesJaccard(t *testing.T) {
	// A = [0, 3000), B = [1000, 4000): Jaccard = 2000/4000 = 0.5.
	a := signature(0, 3000, 9, 256)
	b := signature(1000, 4000, 9, 256)
	if got := Resemblance(a, b, 256); math.Abs(got-0.5) > 0.1 {
		t.Errorf("Resemblance = %v, want ~0.5", got)
	}
}

func TestResemblanceAccuracyQuick(t *testing.T) {
	// Property: KMV resemblance is within 0.15 of true Jaccard for random
	// overlapping ranges with k=256.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2000 + r.Intn(3000)
		overlap := r.Intn(n)
		a := signature(0, uint64(n), 13, 256)
		b := signature(uint64(n-overlap), uint64(2*n-overlap), 13, 256)
		truth := float64(overlap) / float64(2*n-overlap)
		return math.Abs(Resemblance(a, b, 256)-truth) < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
