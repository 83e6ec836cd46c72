// Package priority implements priority sampling (Duffield, Lund, Thorup,
// "Priority sampling for estimation of arbitrary subset sums", JACM 2007
// — the authors' successor to the threshold sampling the paper runs), as
// the natural future-work extension of the subset-sum operator family.
//
// Each item of weight w draws a uniform u in (0, 1] and gets priority
// q = w/u. A fixed-size sample keeps the k items of highest priority; with
// tau the (k+1)-st highest priority, each kept item's adjusted weight is
// max(w, tau). Subset sums estimated by summing adjusted weights over the
// sample are unbiased for any subset, with near-optimal variance — and
// unlike dynamic subset-sum sampling, the sample size is *exactly* k with
// no cleaning-phase tuning at all.
package priority

import (
	"container/heap"
	"fmt"

	"streamop/internal/xrand"
)

// Sample is one retained item.
type Sample[T any] struct {
	Payload  T
	Weight   float64
	Priority float64
}

// itemHeap is a min-heap on priority: the root is the eviction candidate.
type itemHeap[T any] []Sample[T]

func (h itemHeap[T]) Len() int            { return len(h) }
func (h itemHeap[T]) Less(i, j int) bool  { return h[i].Priority < h[j].Priority }
func (h itemHeap[T]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap[T]) Push(x interface{}) { *h = append(*h, x.(Sample[T])) }
func (h *itemHeap[T]) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Sampler maintains a fixed-size priority sample. Its fields are exported
// so a checkpoint codec can store and rebuild it; only Offer and Reset
// change them while sampling.
type Sampler[T any] struct {
	K   int
	Rng *xrand.Rand
	// Items is the sample in heap order: a min-heap on Priority.
	Items []Sample[T]
	// Tau is the highest priority evicted so far: the (k+1)-st highest
	// priority over the whole stream once more than k items were offered,
	// and 0 before.
	Tau float64
}

// New returns a priority sampler keeping k items. rng must not be nil.
func New[T any](k int, rng *xrand.Rand) (*Sampler[T], error) {
	if k < 1 {
		return nil, fmt.Errorf("priority: k must be >= 1, got %d", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("priority: rng must not be nil")
	}
	return &Sampler[T]{K: k, Rng: rng}, nil
}

// Offer presents one item; items of weight <= 0 are ignored. It reports
// whether the item is now in the sample and, when it displaced the
// lowest-priority member, that member's payload.
func (s *Sampler[T]) Offer(weight float64, payload T) (in bool, evicted T, displaced bool) {
	if weight <= 0 {
		return false, evicted, false
	}
	var u float64
	for u == 0 {
		u = s.Rng.Float64()
	}
	item := Sample[T]{Payload: payload, Weight: weight, Priority: weight / u}
	h := (*itemHeap[T])(&s.Items)
	if len(s.Items) < s.K {
		heap.Push(h, item)
		return true, evicted, false
	}
	if item.Priority <= s.Items[0].Priority {
		if item.Priority > s.Tau {
			s.Tau = item.Priority
		}
		return false, evicted, false
	}
	old := s.Items[0]
	s.Items[0] = item
	heap.Fix(h, 0)
	if old.Priority > s.Tau {
		s.Tau = old.Priority
	}
	return true, old.Payload, true
}

// AdjustedWeight returns the estimator weight of a retained sample:
// max(weight, tau).
func (s *Sampler[T]) AdjustedWeight(sm Sample[T]) float64 {
	if sm.Weight > s.Tau {
		return sm.Weight
	}
	return s.Tau
}

// Estimate returns the subset-sum estimate over retained samples matching
// keep (nil means all): the sum of adjusted weights.
func (s *Sampler[T]) Estimate(keep func(T) bool) float64 {
	var sum float64
	for _, sm := range s.Items {
		if keep == nil || keep(sm.Payload) {
			sum += s.AdjustedWeight(sm)
		}
	}
	return sum
}

// Reset clears the sample for a new window, keeping k.
func (s *Sampler[T]) Reset() {
	s.Items = s.Items[:0]
	s.Tau = 0
}
