package subsetsum

import (
	"fmt"
	"math"

	"streamop/internal/xrand"
)

// Randomized implements the original Duffield-Lund-Thorup sampling rule:
// each item is retained independently with probability min(1, w/z) and
// carries adjusted weight max(w, z). The estimator is exactly unbiased but
// has per-window variance where the paper's deterministic counter variant
// (Basic) has an error bounded by z; the two are compared by the
// counter-vs-randomized ablation in EXPERIMENTS.md.
type Randomized[T any] struct {
	z       float64
	rng     *xrand.Rand
	samples []Sample[T]
}

// NewRandomized returns a randomized threshold sampler with threshold
// z > 0.
func NewRandomized[T any](z float64, rng *xrand.Rand) (*Randomized[T], error) {
	if z <= 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		return nil, fmt.Errorf("subsetsum: threshold must be positive and finite, got %v", z)
	}
	if rng == nil {
		return nil, fmt.Errorf("subsetsum: rng must not be nil")
	}
	return &Randomized[T]{z: z, rng: rng}, nil
}

// Offer presents one item; it reports whether the item entered the sample.
func (r *Randomized[T]) Offer(weight float64, payload T) bool {
	if weight > r.z {
		r.samples = append(r.samples, Sample[T]{Payload: payload, Weight: weight, Adj: weight})
		return true
	}
	if r.rng.Float64()*r.z < weight {
		r.samples = append(r.samples, Sample[T]{Payload: payload, Weight: weight, Adj: r.z})
		return true
	}
	return false
}

// Samples returns the retained samples.
func (r *Randomized[T]) Samples() []Sample[T] { return r.samples }
