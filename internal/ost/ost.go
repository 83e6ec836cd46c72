// Package ost implements an order-statistic multiset as a randomized treap.
//
// The sampling operator's superaggregates need order statistics that are
// maintained incrementally as groups are added and removed from a
// supergroup: kth_smallest_value$(x, k) in the min-hash query is the
// canonical example. A treap keyed by value.Value with subtree counts gives
// O(log n) insert, delete, k-th element and rank, and supports duplicate
// values (a multiset) since distinct groups can carry equal values.
package ost

import (
	"streamop/internal/value"
	"streamop/internal/xrand"
)

type node struct {
	val         value.Value
	prio        uint64
	count       int // multiplicity of val at this node
	size        int // total multiplicity in this subtree
	left, right *node
}

func (n *node) subSize() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) recalc() {
	n.size = n.count + n.left.subSize() + n.right.subSize()
}

// Tree is an order-statistic multiset of values. The zero Tree is not
// ready to use; construct with New.
type Tree struct {
	root *node
	rng  *xrand.Rand
}

// New returns an empty multiset. Priorities are drawn from a generator
// seeded with seed, making tree shape (and therefore any timing) fully
// deterministic for a given insertion sequence.
func New(seed uint64) *Tree {
	return &Tree{rng: xrand.New(seed)}
}

// Len returns the number of elements, counting multiplicity.
func (t *Tree) Len() int { return t.root.subSize() }

// Insert adds one occurrence of v.
func (t *Tree) Insert(v value.Value) {
	t.root = t.insert(t.root, v)
}

func (t *Tree) insert(n *node, v value.Value) *node {
	if n == nil {
		return &node{val: v, prio: t.rng.Uint64(), count: 1, size: 1}
	}
	switch c := value.Compare(v, n.val); {
	case c == 0:
		n.count++
		n.size++
		return n
	case c < 0:
		n.left = t.insert(n.left, v)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	default:
		n.right = t.insert(n.right, v)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	n.recalc()
	return n
}

// Delete removes one occurrence of v. It reports whether v was present.
func (t *Tree) Delete(v value.Value) bool {
	var ok bool
	t.root, ok = t.delete(t.root, v)
	return ok
}

func (t *Tree) delete(n *node, v value.Value) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var ok bool
	switch c := value.Compare(v, n.val); {
	case c < 0:
		n.left, ok = t.delete(n.left, v)
	case c > 0:
		n.right, ok = t.delete(n.right, v)
	default:
		ok = true
		if n.count > 1 {
			n.count--
			n.size--
			return n, true
		}
		// Rotate the node down to a leaf position and remove it.
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		if n.left.prio > n.right.prio {
			n = rotateRight(n)
			n.right, _ = t.delete(n.right, v)
		} else {
			n = rotateLeft(n)
			n.left, _ = t.delete(n.left, v)
		}
	}
	n.recalc()
	return n, ok
}

// Kth returns the k-th smallest element (1-based, counting multiplicity).
// ok is false if k is out of range.
func (t *Tree) Kth(k int) (v value.Value, ok bool) {
	if k < 1 || k > t.Len() {
		return value.Value{}, false
	}
	n := t.root
	for n != nil {
		ls := n.left.subSize()
		switch {
		case k <= ls:
			n = n.left
		case k <= ls+n.count:
			return n.val, true
		default:
			k -= ls + n.count
			n = n.right
		}
	}
	return value.Value{}, false
}

// Rank returns the number of elements strictly less than v.
func (t *Tree) Rank(v value.Value) int {
	rank := 0
	n := t.root
	for n != nil {
		switch c := value.Compare(v, n.val); {
		case c <= 0:
			if c == 0 {
				return rank + n.left.subSize()
			}
			n = n.left
		default:
			rank += n.left.subSize() + n.count
			n = n.right
		}
	}
	return rank
}

// Contains reports whether at least one occurrence of v is present.
func (t *Tree) Contains(v value.Value) bool {
	n := t.root
	for n != nil {
		switch c := value.Compare(v, n.val); {
		case c == 0:
			return true
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return false
}

// Min returns the smallest element; ok is false if the tree is empty.
func (t *Tree) Min() (value.Value, bool) { return t.Kth(1) }

// Max returns the largest element; ok is false if the tree is empty.
func (t *Tree) Max() (value.Value, bool) { return t.Kth(t.Len()) }

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.recalc()
	l.recalc()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.recalc()
	r.recalc()
	return r
}
