package sfunlib

import (
	"math"
	"testing"

	"streamop/internal/value"
	"streamop/internal/xrand"
)

// The inclusion audits run a family through the registry, as a query
// does, over one small stream and M independent states (each state of a
// randomized family draws its own stream from the registry's fixed seed),
// so every statistic below is the same on every run. The bounds sit at
// p < 1e-4.

// TestReservoirInclusionUniform: rsample then rsfinal_clean keep each of
// T offered records with probability n/T. Over M runs each record's
// inclusion count is Binomial(M, n/T), and with n fixed per run the
// counts' covariance is M·p(1−p)·T/(T−1)·(I − J/T), so
// Σ(O−E)²·(T−1)/(T·M·p(1−p)) is chi-square on T−1 degrees of freedom.
// Recorded: χ² = 41.2 on 49 df.
func TestReservoirInclusionUniform(t *testing.T) {
	const (
		M, T, n = 4000, 50, 10
		crit    = 94.8 // χ² upper 1e-4 point, 49 df (Wilson–Hilferty)
	)
	r := Default(1)
	counts := make([]int, T)
	for m := 0; m < M; m++ {
		st := newState(t, r, ReservoirStateName, nil)
		for tag := uint64(0); tag < T; tag++ {
			call(t, r, "rsample", st, vu(tag), vi(n), value.NewFloat(5))
		}
		for tag := uint64(0); tag < T; tag++ {
			if call(t, r, "rsfinal_clean", st, vu(tag)).Truth() {
				counts[tag]++
			}
		}
	}
	p := float64(n) / T
	e := M * p
	var ss float64
	for _, o := range counts {
		ss += (float64(o) - e) * (float64(o) - e)
	}
	chi2 := ss * (T - 1) / (T * M * p * (1 - p))
	t.Logf("reservoir inclusion: χ² = %.1f on %d df (bound %.1f)", chi2, T-1, crit)
	if chi2 > crit {
		t.Errorf("χ² = %.1f on %d df exceeds %.1f: inclusion is not n/T", chi2, T-1, crit)
	}
}

// TestPriorityHorvitzThompsonUnbiased: priority sampling's estimate of a
// total, Σ max(w, pstau()) over the pskeep members, is unbiased. Over M
// runs the mean estimate lies within 4 standard errors of the true total
// (|z| < 4 is p ≈ 6e-5). Recorded: z = 0.40.
func TestPriorityHorvitzThompsonUnbiased(t *testing.T) {
	const M, T, k = 4000, 60, 10
	rng := xrand.New(7)
	w := make([]float64, T)
	var total float64
	for i := range w {
		w[i] = float64(1 + rng.Intn(1500))
		total += w[i]
	}
	r := Default(1)
	var sum, sumSq float64
	for m := 0; m < M; m++ {
		st := newState(t, r, PriorityStateName, nil)
		for tag := range w {
			call(t, r, "psample", st, vu(uint64(tag)), value.NewFloat(w[tag]), vi(k))
		}
		tau := call(t, r, "pstau", st).Float()
		var est float64
		for tag := range w {
			if call(t, r, "pskeep", st, vu(uint64(tag))).Truth() {
				est += math.Max(w[tag], tau)
			}
		}
		sum += est
		sumSq += est * est
	}
	mean := sum / M
	se := math.Sqrt((sumSq/M - mean*mean) / (M - 1))
	z := (mean - total) / se
	t.Logf("priority total: mean %.1f, true %.1f, se %.1f, z = %.2f", mean, total, se, z)
	if math.Abs(z) >= 4 {
		t.Errorf("mean estimate %.1f is %.2f standard errors from the true total %.1f", mean, z, total)
	}
}
