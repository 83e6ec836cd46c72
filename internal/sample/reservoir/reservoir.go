// Package reservoir implements fixed-size uniform random sampling from a
// stream of unknown length, after Vitter ("Random sampling with a
// reservoir", ACM TOMS 1985): a reservoir of n records filled by the first
// n and then updated by random replacement, with Algorithm X's skip
// schedule deciding which later records enter.
//
// The operator's rs* family (internal/sfunlib) runs this reservoir over
// record tags. Its cleaning phase is the paper's buffered flavour (§4.1,
// §6.6): displaced candidates stay in the group table until a cleaning
// evicts everything the reservoir no longer holds.
package reservoir

import (
	"fmt"

	"streamop/internal/xrand"
)

// Reservoir maintains a uniform sample of fixed size N by replacement. Its
// fields are exported so a checkpoint codec can store and rebuild it; only
// Offer and Reset change them while sampling.
type Reservoir[T any] struct {
	N     int
	Rng   *xrand.Rand
	Seen  int64 // records offered so far
	Skip  int64 // records still to pass over before the next one enters; -1 = draw
	Items []T   // the sample, by slot
}

// New returns a reservoir of capacity n > 0.
func New[T any](n int, rng *xrand.Rand) (*Reservoir[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("reservoir: size must be positive, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("reservoir: rng must not be nil")
	}
	return &Reservoir[T]{N: n, Rng: rng, Skip: -1}, nil
}

// Offer presents one record. It reports whether the record entered the
// sample and, when it displaced an earlier member, that member.
func (r *Reservoir[T]) Offer(item T) (in bool, evicted T, displaced bool) {
	r.Seen++
	if len(r.Items) < r.N {
		r.Items = append(r.Items, item)
		return true, evicted, false
	}
	if r.Skip < 0 {
		r.Skip = r.drawSkip()
	}
	if r.Skip > 0 {
		r.Skip--
		return false, evicted, false
	}
	r.Skip = -1
	slot := r.Rng.Intn(r.N)
	evicted, r.Items[slot] = r.Items[slot], item
	return true, evicted, true
}

// drawSkip draws the number of records to pass over before the next one
// enters, by Algorithm X's sequential search: after t processed records
// the next enters with probability n/(t+1), so the skip is the least s
// with prod_{i=0..s} (t+1-n+i)/(t+1+i) <= V for a uniform V.
func (r *Reservoir[T]) drawSkip() int64 {
	t := r.Seen - 1 // records fully processed before the current one
	v := r.Rng.Float64()
	var s int64
	num, den := t+1-int64(r.N), t+1
	quot := float64(num) / float64(den)
	for quot > v {
		s++
		num++
		den++
		quot *= float64(num) / float64(den)
	}
	return s
}

// Reset clears the reservoir for a new window, keeping N and the generator.
func (r *Reservoir[T]) Reset() {
	r.Seen = 0
	r.Items = r.Items[:0]
	r.Skip = -1
}
