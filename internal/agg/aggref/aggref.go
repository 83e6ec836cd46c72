// Package aggref is the reference implementation of the built-in group
// aggregates: one object per group, folded one value at a time, and
// encoded in the checkpoint format of agg.Column. It is for tests only —
// the operator's oracle, the partial-aggregation fold's reference and
// agg's own tests hold the column forms to it — so it shares no code with
// package agg.
package aggref

import (
	"math"
	"strings"

	"streamop/internal/checkpoint"
	"streamop/internal/value"
)

// Agg is one group's aggregate.
type Agg interface {
	Update(v value.Value)
	Value() value.Value
	// Encode writes the aggregate as agg.Column.Encode writes a slot.
	Encode(e *checkpoint.Encoder)
}

// New returns a fresh instance of the named built-in aggregate; ok is
// false for any other name. Names are case-insensitive.
func New(name string) (Agg, bool) {
	switch strings.ToLower(name) {
	case "sum":
		return &sumAgg{}, true
	case "count":
		return &countAgg{}, true
	case "min":
		return &minAgg{}, true
	case "max":
		return &maxAgg{}, true
	case "avg":
		return &avgAgg{}, true
	case "first":
		return &firstAgg{}, true
	case "last":
		return &lastAgg{}, true
	case "var":
		return &varAgg{}, true
	case "stddev":
		return &varAgg{stddev: true}, true
	}
	return nil, false
}

// The checkpoint tags of agg's codec.
const (
	tagSum uint8 = iota + 1
	tagCount
	tagMin
	tagMax
	tagAvg
	tagFirst
	tagLast
	tagVar
)

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

func (a *sumAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagSum)
	e.I64(a.i)
	e.F64(a.f)
	e.Bool(a.isFloat)
	e.Bool(a.seen)
}

type countAgg struct{ n int64 }

func (a *countAgg) Update(value.Value) { a.n++ }
func (a *countAgg) Value() value.Value { return value.NewInt(a.n) }

func (a *countAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagCount)
	e.I64(a.n)
}

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

func (a *minAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagMin)
	e.Value(a.v)
	e.Bool(a.seen)
}

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

func (a *maxAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagMax)
	e.Value(a.v)
	e.Bool(a.seen)
}

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

func (a *avgAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagAvg)
	e.F64(a.sum)
	e.I64(a.n)
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

func (a *firstAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagFirst)
	e.Value(a.v)
	e.Bool(a.seen)
}

type lastAgg struct{ v value.Value }

func (a *lastAgg) Update(v value.Value) { a.v = v }
func (a *lastAgg) Value() value.Value   { return a.v }

func (a *lastAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagLast)
	e.Value(a.v)
}

// varAgg is Welford's online variance (or standard deviation).
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

func (a *varAgg) Encode(e *checkpoint.Encoder) {
	e.U8(tagVar)
	e.I64(a.n)
	e.F64(a.mean)
	e.F64(a.m2)
	e.Bool(a.stddev)
}
