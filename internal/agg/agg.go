// Package agg implements the group aggregates and supergroup
// superaggregates of the sampling operator (§6.3 of the paper).
//
// Group aggregates (sum, count, min, max, avg, first, last) accumulate over
// the tuples of one group. Superaggregates (names carrying the $ suffix in
// queries) accumulate over the groups of a supergroup and must support
// subtraction: when the cleaning phase evicts a group, the superaggregate
// is updated by removing that group's contribution.
package agg

import (
	"fmt"
	"math"
	"strings"

	"streamop/internal/ost"
	"streamop/internal/value"
)

// Agg is one group aggregate instance.
type Agg interface {
	// Update folds in one tuple's argument value.
	Update(v value.Value)
	// Value returns the current aggregate value.
	Value() value.Value
}

// Factory creates fresh aggregate instances for new groups.
type Factory func() Agg

// Resettable is an optional Agg extension: Reset restores the instance
// to its fresh-from-Factory state, letting the operator's group arena
// keep a group's aggregate instances each time it hands the group out
// again instead of reallocating. All builtin aggregates implement it;
// UDAFs may opt in.
type Resettable interface{ Reset() }

func (a *sumAgg) Reset()   { *a = sumAgg{} }
func (a *countAgg) Reset() { a.n = 0 }
func (a *minAgg) Reset()   { *a = minAgg{} }
func (a *maxAgg) Reset()   { *a = maxAgg{} }
func (a *avgAgg) Reset()   { *a = avgAgg{} }
func (a *firstAgg) Reset() { *a = firstAgg{} }
func (a *lastAgg) Reset()  { *a = lastAgg{} }
func (a *varAgg) Reset()   { *a = varAgg{stddev: a.stddev} }

// New returns a factory for the named group aggregate; ok is false for
// unknown names. Names are case-insensitive.
func New(name string) (Factory, bool) {
	switch strings.ToLower(name) {
	case "sum":
		return func() Agg { return &sumAgg{} }, true
	case "count":
		return func() Agg { return &countAgg{} }, true
	case "min":
		return func() Agg { return &minAgg{} }, true
	case "max":
		return func() Agg { return &maxAgg{} }, true
	case "avg":
		return func() Agg { return &avgAgg{} }, true
	case "first":
		return func() Agg { return &firstAgg{} }, true
	case "last":
		return func() Agg { return &lastAgg{} }, true
	case "var":
		return func() Agg { return &varAgg{} }, true
	case "stddev":
		return func() Agg { return &varAgg{stddev: true} }, true
	}
	return nil, false
}

// IsAggregate reports whether name is a known group aggregate.
func IsAggregate(name string) bool {
	_, ok := New(name)
	return ok
}

// sumAgg accumulates numerically. Integer inputs keep an exact int64 sum;
// any float input switches to float accumulation.
type sumAgg struct {
	i       int64
	f       float64
	isFloat bool
	seen    bool
}

func (a *sumAgg) Update(v value.Value) {
	if v.IsNull() {
		return
	}
	a.seen = true
	if v.Kind() == value.Float || a.isFloat {
		if !a.isFloat {
			a.f = float64(a.i)
			a.isFloat = true
		}
		a.f += v.AsFloat()
		return
	}
	a.i += v.AsInt()
}

func (a *sumAgg) Value() value.Value {
	if !a.seen {
		return value.Value{}
	}
	if a.isFloat {
		return value.NewFloat(a.f)
	}
	return value.NewInt(a.i)
}

type countAgg struct{ n int64 }

func (a *countAgg) Update(value.Value) { a.n++ }
func (a *countAgg) Value() value.Value { return value.NewInt(a.n) }

type minAgg struct {
	v    value.Value
	seen bool
}

func (a *minAgg) Update(v value.Value) {
	if v.IsNull() {
		return
	}
	if !a.seen || value.Compare(v, a.v) < 0 {
		a.v = v
		a.seen = true
	}
}
func (a *minAgg) Value() value.Value { return a.v }

type maxAgg struct {
	v    value.Value
	seen bool
}

func (a *maxAgg) Update(v value.Value) {
	if v.IsNull() {
		return
	}
	if !a.seen || value.Compare(v, a.v) > 0 {
		a.v = v
		a.seen = true
	}
}
func (a *maxAgg) Value() value.Value { return a.v }

type avgAgg struct {
	sum float64
	n   int64
}

func (a *avgAgg) Update(v value.Value) {
	if v.IsNull() {
		return
	}
	a.sum += v.AsFloat()
	a.n++
}

func (a *avgAgg) Value() value.Value {
	if a.n == 0 {
		return value.Value{}
	}
	return value.NewFloat(a.sum / float64(a.n))
}

type firstAgg struct {
	v    value.Value
	seen bool
}

func (a *firstAgg) Update(v value.Value) {
	if !a.seen {
		a.v = v
		a.seen = true
	}
}
func (a *firstAgg) Value() value.Value { return a.v }

type lastAgg struct{ v value.Value }

func (a *lastAgg) Update(v value.Value) { a.v = v }
func (a *lastAgg) Value() value.Value   { return a.v }

// varAgg computes the population variance (or standard deviation) with
// Welford's numerically stable online algorithm.
type varAgg struct {
	n      int64
	mean   float64
	m2     float64
	stddev bool
}

func (a *varAgg) Update(v value.Value) {
	if v.IsNull() {
		return
	}
	a.n++
	x := v.AsFloat()
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

func (a *varAgg) Value() value.Value {
	if a.n == 0 {
		return value.Value{}
	}
	variance := a.m2 / float64(a.n)
	if a.stddev {
		return value.NewFloat(math.Sqrt(variance))
	}
	return value.NewFloat(variance)
}

// Super is one superaggregate instance, owned by a supergroup.
type Super interface {
	// OnTuple folds in one accepted tuple's argument value.
	OnTuple(v value.Value)
	// OnGroupAdd is called when a new group joins the supergroup, with
	// the tuple-context argument value.
	OnGroupAdd(v value.Value)
	// OnGroupRemove is called when the cleaning phase (or HAVING) evicts
	// a group, with the group's accumulated contribution (see
	// Contribution).
	OnGroupRemove(v value.Value)
	// Value returns the current superaggregate value.
	Value() value.Value
}

// Contribution tells the operator what per-group accumulator to maintain
// so that OnGroupRemove can subtract the right amount.
type Contribution uint8

const (
	// ContribNone needs no per-group accumulator (count_distinct$).
	ContribNone Contribution = iota
	// ContribSum accumulates the sum of the argument over the group's
	// tuples (sum$).
	ContribSum
	// ContribFirst records the argument value at group creation
	// (kth_smallest_value$ over a group-by variable).
	ContribFirst
)

// SuperSpec describes one superaggregate kind.
type SuperSpec struct {
	// Name is the query-level name including the $ suffix.
	Name string
	// Contribution selects the per-group accumulator policy.
	Contribution Contribution
	// New builds an instance; consts are the literal arguments after the
	// first (e.g. the k of kth_smallest_value$(x, k)).
	New func(consts []value.Value) (Super, error)
}

// SuperByName returns the spec for a superaggregate name (with the $
// suffix, case-insensitive); ok is false for unknown names.
func SuperByName(name string) (*SuperSpec, bool) {
	switch strings.ToLower(name) {
	case "count_distinct$":
		return &SuperSpec{
			Name:         "count_distinct$",
			Contribution: ContribNone,
			New: func(consts []value.Value) (Super, error) {
				if len(consts) != 0 {
					return nil, fmt.Errorf("agg: count_distinct$ takes no constant arguments")
				}
				return &countDistinctSuper{}, nil
			},
		}, true
	case "sum$":
		return &SuperSpec{
			Name:         "sum$",
			Contribution: ContribSum,
			New: func(consts []value.Value) (Super, error) {
				if len(consts) != 0 {
					return nil, fmt.Errorf("agg: sum$ takes no constant arguments")
				}
				return &sumSuper{}, nil
			},
		}, true
	case "kth_smallest_value$":
		return &SuperSpec{
			Name:         "kth_smallest_value$",
			Contribution: ContribFirst,
			New: func(consts []value.Value) (Super, error) {
				if len(consts) != 1 || !consts[0].Kind().Numeric() {
					return nil, fmt.Errorf("agg: kth_smallest_value$ needs a numeric constant k")
				}
				k := int(consts[0].AsInt())
				if k < 1 {
					return nil, fmt.Errorf("agg: kth_smallest_value$ needs k >= 1, got %d", k)
				}
				return &kthSuper{k: k, tree: ost.New(uint64(k)*0x9e37 + 1)}, nil
			},
		}, true
	case "min$":
		return &SuperSpec{
			Name:         "min$",
			Contribution: ContribFirst,
			New: func(consts []value.Value) (Super, error) {
				if len(consts) != 0 {
					return nil, fmt.Errorf("agg: min$ takes no constant arguments")
				}
				return &kthSuper{k: 1, tree: ost.New(0x51)}, nil
			},
		}, true
	case "max$":
		return &SuperSpec{
			Name:         "max$",
			Contribution: ContribFirst,
			New: func(consts []value.Value) (Super, error) {
				if len(consts) != 0 {
					return nil, fmt.Errorf("agg: max$ takes no constant arguments")
				}
				return &kthSuper{k: 1, fromTop: true, tree: ost.New(0x52)}, nil
			},
		}, true
	}
	return nil, false
}

// IsSuper reports whether name (with $ suffix) is a known superaggregate.
func IsSuper(name string) bool {
	_, ok := SuperByName(name)
	return ok
}

// countDistinctSuper counts live groups.
type countDistinctSuper struct{ n int64 }

func (s *countDistinctSuper) OnTuple(value.Value)       {}
func (s *countDistinctSuper) OnGroupAdd(value.Value)    { s.n++ }
func (s *countDistinctSuper) OnGroupRemove(value.Value) { s.n-- }
func (s *countDistinctSuper) Value() value.Value        { return value.NewInt(s.n) }

// sumSuper sums the argument over all accepted tuples of live groups.
type sumSuper struct{ sum float64 }

func (s *sumSuper) OnTuple(v value.Value) {
	if !v.IsNull() {
		s.sum += v.AsFloat()
	}
}
func (s *sumSuper) OnGroupAdd(value.Value) {}
func (s *sumSuper) OnGroupRemove(v value.Value) {
	if !v.IsNull() {
		s.sum -= v.AsFloat()
	}
}
func (s *sumSuper) Value() value.Value { return value.NewFloat(s.sum) }

// kthSuper maintains the k-th smallest (or, with fromTop, k-th largest)
// group value via an order-statistic treap; it backs kth_smallest_value$,
// min$ and max$.
type kthSuper struct {
	k       int
	fromTop bool
	tree    *ost.Tree
}

func (s *kthSuper) OnTuple(value.Value) {}
func (s *kthSuper) OnGroupAdd(v value.Value) {
	if !v.IsNull() {
		s.tree.Insert(v)
	}
}
func (s *kthSuper) OnGroupRemove(v value.Value) {
	if !v.IsNull() {
		s.tree.Delete(v)
	}
}

// Value returns the k-th smallest live value (k-th largest with fromTop),
// or an infinity of the permissive sign while fewer than k groups exist —
// so admission predicates of the form x <= kth$(x, k) accept everything
// until the sketch fills, as min-hash sampling requires.
func (s *kthSuper) Value() value.Value {
	k := s.k
	if s.fromTop {
		k = s.tree.Len() - s.k + 1
	}
	if v, ok := s.tree.Kth(k); ok {
		return v
	}
	if s.fromTop {
		return value.NewFloat(math.Inf(-1))
	}
	return value.NewFloat(math.Inf(1))
}
