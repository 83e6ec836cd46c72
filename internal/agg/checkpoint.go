package agg

import (
	"fmt"

	"streamop/internal/checkpoint"
	"streamop/internal/ost"
)

// Checkpoint codec for the built-in aggregates and superaggregates. A
// column writes one slot's accumulator under its aggregate's stable tag
// with the accumulator's full state, so a restored slot continues folding
// exactly where the original stopped. User-defined aggregates (a boxed
// sfun.Accumulator) have no codec: their column's Encode errs, and so does
// the operator's snapshot.

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

const (
	tagSuperCountDistinct uint8 = iota + 1
	tagSuperSum
	tagSuperKth
)

// decodeTag reads a slot's tag and fails d unless it is want.
func decodeTag(d *checkpoint.Decoder, want uint8) {
	tag := d.U8()
	switch {
	case d.Err() != nil:
	case tag < tagSum || tag > tagVar:
		d.Fail("agg: unknown aggregate tag %d", tag)
	case tag != want:
		d.Fail("agg: aggregate tag %d where the plan has tag %d", tag, want)
	}
}

func (c *sumCol) Encode(e *checkpoint.Encoder, s int32) error {
	a := &c.slots[s]
	e.U8(tagSum)
	e.I64(a.i)
	e.F64(a.f)
	e.Bool(a.isFloat)
	e.Bool(a.seen)
	return nil
}

func (c *sumCol) Decode(d *checkpoint.Decoder, s int32) error {
	decodeTag(d, tagSum)
	c.slots[s] = sumAcc{i: d.I64(), f: d.F64(), isFloat: d.Bool(), seen: d.Bool()}
	return d.Err()
}

func (c *countCol) Encode(e *checkpoint.Encoder, s int32) error {
	e.U8(tagCount)
	e.I64(c.slots[s])
	return nil
}

func (c *countCol) Decode(d *checkpoint.Decoder, s int32) error {
	decodeTag(d, tagCount)
	c.slots[s] = d.I64()
	return d.Err()
}

func (c *heldCol) Encode(e *checkpoint.Encoder, s int32) error {
	e.U8(c.tag)
	e.Value(c.slots[s].v)
	e.Bool(c.slots[s].seen)
	return nil
}

func (c *heldCol) Decode(d *checkpoint.Decoder, s int32) error {
	decodeTag(d, c.tag)
	c.slots[s] = heldAcc{v: d.Value(), seen: d.Bool()}
	return d.Err()
}

func (c *avgCol) Encode(e *checkpoint.Encoder, s int32) error {
	a := &c.slots[s]
	e.U8(tagAvg)
	e.F64(a.sum)
	e.I64(a.n)
	return nil
}

func (c *avgCol) Decode(d *checkpoint.Decoder, s int32) error {
	decodeTag(d, tagAvg)
	c.slots[s] = avgAcc{sum: d.F64(), n: d.I64()}
	return d.Err()
}

func (c *lastCol) Encode(e *checkpoint.Encoder, s int32) error {
	e.U8(tagLast)
	e.Value(c.slots[s])
	return nil
}

func (c *lastCol) Decode(d *checkpoint.Decoder, s int32) error {
	decodeTag(d, tagLast)
	c.slots[s] = d.Value()
	return d.Err()
}

func (c *varCol) Encode(e *checkpoint.Encoder, s int32) error {
	a := &c.slots[s]
	e.U8(tagVar)
	e.I64(a.n)
	e.F64(a.mean)
	e.F64(a.m2)
	e.Bool(c.stddev)
	return nil
}

func (c *varCol) Decode(d *checkpoint.Decoder, s int32) error {
	decodeTag(d, tagVar)
	c.slots[s] = varAcc{n: d.I64(), mean: d.F64(), m2: d.F64()}
	if stddev := d.Bool(); d.Err() == nil && stddev != c.stddev {
		d.Fail("agg: var/stddev flag %v where the plan has %v", stddev, c.stddev)
	}
	return d.Err()
}

// A user-defined aggregate has no codec.
func (c *boxCol) Encode(_ *checkpoint.Encoder, s int32) error {
	return fmt.Errorf("agg: %T is not checkpointable", c.slots[s])
}

func (c *boxCol) Decode(d *checkpoint.Decoder, _ int32) error {
	d.Fail("agg: a user-defined aggregate has no codec")
	return d.Err()
}

// EncodeSuper serializes one built-in superaggregate.
func EncodeSuper(e *checkpoint.Encoder, s Super) error {
	switch s := s.(type) {
	case *countDistinctSuper:
		e.U8(tagSuperCountDistinct)
		e.I64(s.n)
	case *sumSuper:
		e.U8(tagSuperSum)
		e.F64(s.sum)
	case *kthSuper:
		e.U8(tagSuperKth)
		e.I64(int64(s.k))
		e.Bool(s.fromTop)
		s.tree.Encode(e)
	default:
		return fmt.Errorf("agg: superaggregate %T is not checkpointable", s)
	}
	return nil
}

// DecodeSuper reads back one superaggregate serialized by EncodeSuper.
func DecodeSuper(d *checkpoint.Decoder) (Super, error) {
	tag := d.U8()
	var s Super
	switch tag {
	case tagSuperCountDistinct:
		s = &countDistinctSuper{n: d.I64()}
	case tagSuperSum:
		s = &sumSuper{sum: d.F64()}
	case tagSuperKth:
		k := int(d.I64())
		fromTop := d.Bool()
		tree := ost.Decode(d)
		if d.Err() == nil && k < 1 {
			d.Fail("agg: kth superaggregate with k=%d", k)
		}
		s = &kthSuper{k: k, fromTop: fromTop, tree: tree}
	default:
		if d.Err() == nil {
			d.Fail("agg: unknown superaggregate tag %d", tag)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
