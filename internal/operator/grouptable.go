package operator

import "streamop/internal/tuple"

// groupTable is the window's group table: an open-addressing hash table
// (linear probing, backward-shift deletion) from group-by key hash to
// *group. It replaces the earlier map[uint64][]*group: a probe touches one
// flat slot array instead of map metadata plus a chain slice, the walk
// compares keys directly against columnar rows without materializing
// values, and window rotation is a memclr that keeps the
// slot storage (the group structs themselves come from the operator's
// window-ordered arena, handed out again every window; see newGroup). The
// zero value is an empty, usable table.
type groupTable struct {
	slots []groupSlot // power-of-two length
	mask  uint64
	n     int
}

type groupSlot struct {
	hash uint64
	g    *group
}

const groupTableMinSize = 64

// len returns the number of resident groups.
func (t *groupTable) len() int { return t.n }

// lookupCols returns the group whose key equals row `row` of the group-by
// columns (hash h), or nil. Equality is value.Equal, through
// Column.EqualValue.
func (t *groupTable) lookupCols(h uint64, cols []*tuple.Column, row int) *group {
	if t.n == 0 {
		return nil
	}
probe:
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.g == nil {
			return nil
		}
		if s.hash != h || len(s.g.vals) != len(cols) {
			continue
		}
		for c := range cols {
			if !cols[c].EqualValue(row, s.g.vals[c]) {
				continue probe
			}
		}
		return s.g
	}
}

// insert adds g under hash h. The key must not already be resident.
func (t *groupTable) insert(h uint64, g *group) {
	if t.n >= len(t.slots)-len(t.slots)/4 { // max load factor 3/4
		t.grow()
	}
	i := h & t.mask
	for t.slots[i].g != nil {
		i = (i + 1) & t.mask
	}
	t.slots[i] = groupSlot{hash: h, g: g}
	t.n++
}

func (t *groupTable) grow() {
	old := t.slots
	size := groupTableMinSize
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]groupSlot, size)
	t.mask = uint64(size - 1)
	for _, s := range old {
		if s.g == nil {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].g != nil {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// remove deletes g (hash h) with backward-shift compaction: entries after
// the vacated slot whose probe distance reaches across it shift back, so
// cleaning-phase evictions leave no tombstones behind.
func (t *groupTable) remove(h uint64, g *group) {
	if t.n == 0 {
		return
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.g == nil {
			return // not resident
		}
		if s.g == g {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s.g == nil {
			break
		}
		// s may fill the hole iff its ideal slot is not inside (i, j]
		// cyclically — i.e. probing for s would have visited i.
		if (j-(s.hash&t.mask))&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = groupSlot{}
	t.n--
}

// clear empties the table, keeping its slot storage for the next window.
func (t *groupTable) clear() {
	for i := range t.slots {
		t.slots[i] = groupSlot{}
	}
	t.n = 0
}
