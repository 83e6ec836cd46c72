package operator

import (
	"streamop/internal/agg"
	"streamop/internal/gsql"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// The open window's groups live as slots of a groupStore: slot s's key is
// row s of one tuple.Column per GROUP BY item, its hash hash[s], its
// aggregates slot s of one agg.Column per aggregate, its superaggregate
// contributions row s of one tuple.Column per superaggregate. A group is a
// slot number: the supergroup-group table (supergroup.groups) lists slots,
// and the group table (groupTable) maps a key hash to the slots holding
// it. Probing compares the batch's GROUP BY columns with the key columns
// word by word, creation writes words, and cleaning and the flush read the
// few dense columns their clauses name — no group is an object, so no pass
// chases pointers from one to the next. Traces, cold data, stay off these
// columns (Operator.traces).
//
// Slots are handed out in window order: the next slot the open window has
// not used, else one cleaning freed earlier in the window, else a new one.
// Each window's groups thus lie in the order sg.groups, cleaning, HAVING
// and SELECT walk them, and the store never outgrows the resident
// high-water mark. Window rotation rewinds the cursor.
type groupStore struct {
	keys     []tuple.Column
	hash     []uint64
	aggs     []agg.Column
	contribs []tuple.Column
	next     int32   // the open window's cursor: slots before it are in use or free
	free     []int32 // slots cleaning freed in the open window
}

func newGroupStore(p *gsql.Plan) groupStore {
	st := groupStore{
		keys:     make([]tuple.Column, len(p.GroupBy)),
		aggs:     make([]agg.Column, len(p.Aggs)),
		contribs: make([]tuple.Column, len(p.Supers)),
	}
	for i, def := range p.Aggs {
		st.aggs[i] = def.New()
	}
	return st
}

// claim takes a slot for a new group of hash h, with fresh aggregates and
// NULL contributions. The caller writes its key.
func (st *groupStore) claim(h uint64) int32 {
	var s int32
	switch n := len(st.free); {
	case int(st.next) < len(st.hash):
		s = st.next
		st.next++
		st.hash[s] = h
	case n > 0:
		s = st.free[n-1]
		st.free = st.free[:n-1]
		st.hash[s] = h
	default:
		s = int32(len(st.hash))
		st.hash = append(st.hash, h)
		st.next++
	}
	for _, a := range st.aggs {
		a.Reset(s)
	}
	for i := range st.contribs {
		setSlot(&st.contribs[i], s, value.Value{})
	}
	return s
}

// setSlot writes v into row s of c, appending it when s is c's length.
func setSlot(c *tuple.Column, s int32, v value.Value) {
	if int(s) == c.Len() {
		c.AppendValue(v)
		return
	}
	c.SetValue(int(s), v)
}

// setKeyRow writes slot s's key from row row of the GROUP BY columns gb.
func (st *groupStore) setKeyRow(s int32, gb []*tuple.Column, row int) {
	for i := range st.keys {
		st.keys[i].SetFrom(int(s), gb[i], row)
	}
}

// setKeyVals writes slot s's key from vals.
func (st *groupStore) setKeyVals(s int32, vals []value.Value) {
	for i := range st.keys {
		setSlot(&st.keys[i], s, vals[i])
	}
}

// keyVals materializes slot s's key into dst.
func (st *groupStore) keyVals(s int32, dst []value.Value) []value.Value {
	dst = dst[:0]
	for i := range st.keys {
		dst = append(dst, st.keys[i].Value(int(s)))
	}
	return dst
}

// key renders slot s's key as tuple.Key.String does, for traces and
// /debug/state.
func (st *groupStore) key(s int32) string { return tuple.MakeKey(st.keyVals(s, nil)).String() }

// release frees slot s for a later group of the open window.
func (st *groupStore) release(s int32) { st.free = append(st.free, s) }

// rewind hands every slot out again from the first, for the next window.
func (st *groupStore) rewind() { st.next, st.free = 0, st.free[:0] }

// bytes reports the store's storage in bytes.
func (st *groupStore) bytes() int64 {
	n := 8*int64(cap(st.hash)) + 4*int64(cap(st.free))
	for i := range st.keys {
		n += st.keys[i].Bytes()
	}
	for _, a := range st.aggs {
		n += a.Bytes()
	}
	for i := range st.contribs {
		n += st.contribs[i].Bytes()
	}
	return n
}

// groupTable is the window's group table: an open-addressing hash table
// (linear probing, backward-shift deletion) from key hash to the slot of
// the group holding the key. A probe touches one flat array of 8-byte
// (hash, slot) pairs and compares keys only on a hash match; window
// rotation is a memclr that keeps the array. The zero value is an empty,
// usable table.
type groupTable struct {
	entries []groupEntry // power-of-two length, at most 1<<32
	mask    uint64
	n       int
}

// groupEntry is one table entry: the low 32 bits of the key's hash, which
// place it (hash & mask), and the slot plus one, 0 when empty.
type groupEntry struct {
	hash uint32
	ref  uint32
}

const groupTableMinSize = 64

// len returns the number of resident groups.
func (t *groupTable) len() int { return t.n }

// lookupCols returns the slot of the group whose key, in st, equals row
// row of the group-by columns cols (hash h), or -1. Equality is
// value.Equal, through Column.EqualRow.
func (t *groupTable) lookupCols(st *groupStore, h uint64, cols []*tuple.Column, row int) int32 {
	if t.n == 0 {
		return -1
	}
probe:
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := &t.entries[i]
		if e.ref == 0 {
			return -1
		}
		if e.hash != uint32(h) {
			continue
		}
		s := int(e.ref - 1)
		for c := range cols {
			if !st.keys[c].EqualRow(s, cols[c], row) {
				continue probe
			}
		}
		return int32(s)
	}
}

// insert adds slot s under hash h. Its key must not already be resident.
func (t *groupTable) insert(h uint64, s int32) {
	if t.n >= len(t.entries)-len(t.entries)/4 { // max load factor 3/4
		t.grow()
	}
	i := h & t.mask
	for t.entries[i].ref != 0 {
		i = (i + 1) & t.mask
	}
	t.entries[i] = groupEntry{hash: uint32(h), ref: uint32(s) + 1}
	t.n++
}

func (t *groupTable) grow() {
	old := t.entries
	size := groupTableMinSize
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.entries = make([]groupEntry, size)
	t.mask = uint64(size - 1)
	for _, e := range old {
		if e.ref == 0 {
			continue
		}
		i := uint64(e.hash) & t.mask
		for t.entries[i].ref != 0 {
			i = (i + 1) & t.mask
		}
		t.entries[i] = e
	}
}

// remove deletes slot s (hash h) with backward-shift compaction: entries
// after the vacated one whose probe distance reaches across it shift back,
// so cleaning-phase evictions leave no tombstones behind.
func (t *groupTable) remove(h uint64, s int32) {
	if t.n == 0 {
		return
	}
	ref := uint32(s) + 1
	i := h & t.mask
	for {
		e := &t.entries[i]
		if e.ref == 0 {
			return // not resident
		}
		if e.ref == ref {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		j = (j + 1) & t.mask
		e := t.entries[j]
		if e.ref == 0 {
			break
		}
		// e may fill the hole iff its ideal entry is not inside (i, j]
		// cyclically — i.e. probing for e would have visited i.
		if (j-(uint64(e.hash)&t.mask))&t.mask >= (j-i)&t.mask {
			t.entries[i] = e
			i = j
		}
	}
	t.entries[i] = groupEntry{}
	t.n--
}

// clear empties the table, keeping its entry storage for the next window.
func (t *groupTable) clear() {
	clear(t.entries)
	t.n = 0
}

// bytes reports the table's storage in bytes.
func (t *groupTable) bytes() int64 { return 8 * int64(len(t.entries)) }
