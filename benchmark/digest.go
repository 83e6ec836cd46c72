package main

import (
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// digest is an order-independent fingerprint of a multiset of rows.
type digest struct {
	n, sum, xor uint64
}

func (d *digest) add(h uint64) {
	d.n++
	d.sum += h
	d.xor ^= h
}

// merge folds another digest's rows into d.
func (d *digest) merge(o digest) {
	d.n += o.n
	d.sum += o.sum
	d.xor ^= o.xor
}

// mismatch returns how many rows to count as failed when d should have
// equalled want: the count difference, or one when only content differs.
func (d digest) mismatch(want digest) int64 {
	if d == want {
		return 0
	}
	diff := int64(d.n) - int64(want.n)
	if diff < 0 {
		diff = -diff
	}
	if diff == 0 {
		diff = 1
	}
	return diff
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hashWords(ws ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range ws {
		h = mix(h ^ w)
	}
	return h
}

// rowHash hashes an output row by value, not by kind: integers of either
// signedness hash as their magnitude so a reference that counts in uint64
// agrees with an engine that sums an Int column; floats hash by bit
// pattern.
func rowHash(row tuple.Tuple) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		w := v.AsUint()
		if v.Kind() == value.Float {
			w = v.Bits()
		}
		h = mix(h ^ w)
	}
	return h
}
