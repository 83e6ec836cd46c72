// Package agg implements the group aggregates and supergroup
// superaggregates of the sampling operator (§6.3 of the paper).
//
// Group aggregates (sum, count, min, max, avg, first, last, var, stddev)
// accumulate over the tuples of one group. Each is a Column: one
// accumulator per slot of a group store, so a window's groups lie in a
// few dense arrays rather than one object each; a user-defined aggregate's
// instances live boxed in one. Superaggregates (names carrying the $ suffix in
// queries) accumulate over the groups of a supergroup and must support
// subtraction: when the cleaning phase evicts a group, the superaggregate
// is updated by removing that group's contribution.
package agg

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"streamop/internal/checkpoint"
	"streamop/internal/ost"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Agg is one instance of a user-defined aggregate (sfun.Accumulator): the
// per-group object a UDAF folds its group's tuples into. The built-in
// aggregates have no such object; they are Columns.
type Agg interface {
	// Update folds in one tuple's argument value.
	Update(v value.Value)
	// Value returns the current aggregate value.
	Value() value.Value
}

// Factory creates a user-defined aggregate's instance for a new group.
type Factory func() Agg

// Column holds one aggregate's accumulators for every slot of a group
// store: slot s is the group living in it. The operator's group store and
// the partial-aggregation table keep one Column per aggregate of the plan.
type Column interface {
	// Reset gives slot s a fresh accumulator, growing the column to hold
	// it.
	Reset(s int32)
	// Update folds one tuple's argument value into slot s.
	Update(s int32, v value.Value)
	// Value returns slot s's current aggregate value.
	Value(s int32) value.Value
	// Encode writes slot s's accumulator in the checkpoint format (see
	// checkpoint.go); Decode reads one back into slot s, which Reset has
	// made.
	Encode(e *checkpoint.Encoder, s int32) error
	Decode(d *checkpoint.Decoder, s int32) error
	// Bytes reports the column's storage in bytes.
	Bytes() int64
}

// Slot is one group's aggregates: slot At of the columns Cols, read by
// the aggregate's index (the reader gsql.Ctx.Aggs takes).
type Slot struct {
	Cols []Column
	At   int32
}

// Agg returns aggregate i's value at the slot.
func (r *Slot) Agg(i int) value.Value { return r.Cols[i].Value(r.At) }

// Gather appends the values of column c at slots to dst, in order: a
// per-group clause's argument as one column over a supergroup's groups.
// Integer sums and counts move as words; other columns box each value.
func Gather(dst *tuple.Column, c Column, slots []int32) {
	switch c := c.(type) {
	case *sumCol:
		if c.gather(dst, slots) {
			return
		}
	case *countCol:
		words := dst.Extend(value.Int, len(slots))
		for i, s := range slots {
			words[i] = uint64(c.slots[s])
		}
		return
	}
	for _, s := range slots {
		dst.AppendValue(c.Value(s))
	}
}

// gather is Gather for a column whose slots at slots all hold integer
// sums, and reports whether they did (else it has appended nothing).
func (c *sumCol) gather(dst *tuple.Column, slots []int32) bool {
	for _, s := range slots {
		if a := &c.slots[s]; !a.seen || a.isFloat {
			return false
		}
	}
	words := dst.Extend(value.Int, len(slots))
	for i, s := range slots {
		words[i] = uint64(c.slots[s].i)
	}
	return true
}

// Scatter folds the argument column arg at rows into column c, row rows[i]
// into slot slots[i] in order: Update over a run of rows, one aggregate at
// a time. A nil arg folds NULL (count(*)). Counts, and sums over a
// kind-uniform Int or Uint column, move as words; other columns box each
// value and Update.
func Scatter(c Column, slots []int32, arg *tuple.Column, rows []int32) {
	switch c := c.(type) {
	case *countCol:
		for _, s := range slots {
			c.slots[s]++
		}
		return
	case *sumCol:
		if arg != nil {
			if k, ok := arg.Uniform(); ok && (k == value.Int || k == value.Uint) {
				c.scatter(k, slots, arg.Bits(), rows)
				return
			}
		}
	}
	for i, s := range slots {
		var v value.Value
		if arg != nil {
			v = arg.Value(int(rows[i]))
		}
		c.Update(s, v)
	}
}

// scatter is Scatter for an argument of kind k, Int or Uint, whose payload
// words are words.
func (c *sumCol) scatter(k value.Kind, slots []int32, words []uint64, rows []int32) {
	for i, s := range slots {
		a, w := &c.slots[s], words[rows[i]]
		a.seen = true
		if a.isFloat {
			a.f += value.FromBits(k, w).AsFloat()
			continue
		}
		a.i += int64(w)
	}
}

// New returns the column constructor of the named built-in aggregate; ok
// is false for unknown names. Names are case-insensitive.
func New(name string) (func() Column, bool) {
	switch strings.ToLower(name) {
	case "sum":
		return func() Column { return new(sumCol) }, true
	case "count":
		return func() Column { return new(countCol) }, true
	case "min":
		return func() Column { return &extremeCol{heldCol{tag: tagMin}, -1} }, true
	case "max":
		return func() Column { return &extremeCol{heldCol{tag: tagMax}, 1} }, true
	case "avg":
		return func() Column { return new(avgCol) }, true
	case "first":
		return func() Column { return &firstCol{heldCol{tag: tagFirst}} }, true
	case "last":
		return func() Column { return new(lastCol) }, true
	case "var":
		return func() Column { return new(varCol) }, true
	case "stddev":
		return func() Column { return &varCol{stddev: true} }, true
	}
	return nil, false
}

// IsAggregate reports whether name is a known group aggregate.
func IsAggregate(name string) bool {
	_, ok := New(name)
	return ok
}

// Boxed returns the column constructor of a user-defined aggregate: its
// slots hold the instances f makes.
func Boxed(f Factory) func() Column {
	return func() Column { return &boxCol{new: f} }
}

// slots is a column's storage, one accumulator of type T per slot.
type slots[T any] []T

// Reset gives slot s the zero accumulator, growing the storage to hold it.
func (c *slots[T]) Reset(s int32) {
	var zero T
	if int(s) < len(*c) {
		(*c)[s] = zero
		return
	}
	*c = append(*c, make([]T, int(s)+1-len(*c))...)
}

func (c *slots[T]) Bytes() int64 {
	var zero T
	return int64(cap(*c)) * int64(unsafe.Sizeof(zero))
}

// sumCol accumulates numerically. Integer inputs keep an exact int64 sum;
// any float input switches the slot to float accumulation.
type sumCol struct{ slots[sumAcc] }

type sumAcc struct {
	i       int64
	f       float64
	isFloat bool
	seen    bool
}

func (c *sumCol) Update(s int32, v value.Value) {
	if v.IsNull() {
		return
	}
	a := &c.slots[s]
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

func (c *sumCol) Value(s int32) value.Value {
	a := &c.slots[s]
	if !a.seen {
		return value.Value{}
	}
	if a.isFloat {
		return value.NewFloat(a.f)
	}
	return value.NewInt(a.i)
}

type countCol struct{ slots[int64] }

func (c *countCol) Update(s int32, _ value.Value) { c.slots[s]++ }
func (c *countCol) Value(s int32) value.Value     { return value.NewInt(c.slots[s]) }

// heldCol holds a value a slot has taken: the columns of min, max and
// first, under their checkpoint tag.
type heldCol struct {
	slots[heldAcc]
	tag uint8
}

// heldAcc is a value a slot holds, and whether it has taken one.
type heldAcc struct {
	v    value.Value
	seen bool
}

// extremeCol keeps the least (sign -1: min) or greatest (sign 1: max)
// non-NULL value a slot has seen.
type extremeCol struct {
	heldCol
	sign int
}

func (c *extremeCol) Update(s int32, v value.Value) {
	if v.IsNull() {
		return
	}
	if a := &c.slots[s]; !a.seen || value.Compare(v, a.v)*c.sign > 0 {
		a.v = v
		a.seen = true
	}
}

func (c *extremeCol) Value(s int32) value.Value { return c.slots[s].v }

type avgCol struct{ slots[avgAcc] }

type avgAcc struct {
	sum float64
	n   int64
}

func (c *avgCol) Update(s int32, v value.Value) {
	if v.IsNull() {
		return
	}
	a := &c.slots[s]
	a.sum += v.AsFloat()
	a.n++
}

func (c *avgCol) Value(s int32) value.Value {
	a := &c.slots[s]
	if a.n == 0 {
		return value.Value{}
	}
	return value.NewFloat(a.sum / float64(a.n))
}

// firstCol keeps the first value a slot sees, NULL included.
type firstCol struct{ heldCol }

func (c *firstCol) Update(s int32, v value.Value) {
	if a := &c.slots[s]; !a.seen {
		a.v = v
		a.seen = true
	}
}

func (c *firstCol) Value(s int32) value.Value { return c.slots[s].v }

type lastCol struct{ slots[value.Value] }

func (c *lastCol) Update(s int32, v value.Value) { c.slots[s] = v }
func (c *lastCol) Value(s int32) value.Value     { return c.slots[s] }

// varCol computes the population variance (or standard deviation) with
// Welford's numerically stable online algorithm.
type varCol struct {
	slots[varAcc]
	stddev bool
}

type varAcc struct {
	n    int64
	mean float64
	m2   float64
}

func (c *varCol) Update(s int32, v value.Value) {
	if v.IsNull() {
		return
	}
	a := &c.slots[s]
	a.n++
	x := v.AsFloat()
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

func (c *varCol) Value(s int32) value.Value {
	a := &c.slots[s]
	if a.n == 0 {
		return value.Value{}
	}
	variance := a.m2 / float64(a.n)
	if c.stddev {
		return value.NewFloat(math.Sqrt(variance))
	}
	return value.NewFloat(variance)
}

// boxCol holds a user-defined aggregate's instances, one a slot.
type boxCol struct {
	slots[Agg]
	new Factory
}

func (c *boxCol) Reset(s int32) {
	c.slots.Reset(s)
	c.slots[s] = c.new()
}

func (c *boxCol) Update(s int32, v value.Value) { c.slots[s].Update(v) }
func (c *boxCol) Value(s int32) value.Value     { return c.slots[s].Value() }

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
