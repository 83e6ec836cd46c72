package operator

import (
	"testing"

	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// lookupKey probes the table over the store st for the key vals, as the
// walk probes one row of its group-by columns.
func lookupKey(t *groupTable, st *groupStore, vals []value.Value) int32 {
	cols := make([]*tuple.Column, len(vals))
	for i, v := range vals {
		cols[i] = new(tuple.Column)
		cols[i].AppendValue(v)
	}
	return t.lookupCols(st, tuple.HashRow(cols, 0), cols, 0)
}

// Randomized insert/remove/lookup against a reference map. Interleaved
// removals stress backward-shift deletion: after every operation each
// resident key must still be reachable along its probe chain. Removed
// keys free their slots, which later keys reuse.
func TestGroupTableRandomized(t *testing.T) {
	r := xrand.New(11)
	var tab groupTable
	st := groupStore{keys: make([]tuple.Column, 1)}
	ref := make(map[int64]int32)
	keyVals := func(k int64) []value.Value { return []value.Value{value.NewInt(k)} }

	checkAll := func() {
		t.Helper()
		if tab.len() != len(ref) {
			t.Fatalf("len = %d, want %d", tab.len(), len(ref))
		}
		for k, g := range ref {
			if got := lookupKey(&tab, &st, keyVals(k)); got != g {
				t.Fatalf("lookup %d = slot %d, want %d", k, got, g)
			}
		}
	}

	const keyRange = 600 // collisions and clusters at every table size
	for step := 0; step < 20000; step++ {
		k := int64(r.Intn(keyRange))
		vals := keyVals(k)
		h := tuple.HashValues(vals)
		switch {
		case r.Intn(3) != 0: // insert (if absent)
			if _, ok := ref[k]; !ok {
				g := st.claim(h)
				st.setKeyVals(g, vals)
				ref[k] = g
				tab.insert(h, g)
			}
		default: // remove (if present)
			if g, ok := ref[k]; ok {
				tab.remove(h, g)
				st.release(g)
				delete(ref, k)
			}
			if got := lookupKey(&tab, &st, vals); got >= 0 {
				t.Fatalf("lookup after remove %d = slot %d", k, got)
			}
		}
		if step%500 == 0 {
			checkAll()
		}
	}
	checkAll()
	if len(st.hash) > keyRange {
		t.Fatalf("%d slots for at most %d resident keys: freed slots are not reused", len(st.hash), keyRange)
	}

	// Lookups at every row of a batch reach every resident key.
	schema := tuple.MustSchema("K", tuple.Field{Name: "k", Kind: value.Int})
	b := tuple.NewBatch(schema, keyRange)
	var want []int32
	for k := int64(0); k < keyRange; k++ {
		if g, ok := ref[k]; ok {
			b.AppendRow(tuple.Tuple{value.NewInt(k)})
			want = append(want, g)
		}
	}
	cols := []*tuple.Column{b.Col(0)}
	for i := 0; i < b.Len(); i++ {
		got := tab.lookupCols(&st, tuple.HashRow(cols, i), cols, i)
		if got != want[i] {
			t.Fatalf("lookupCols row %d = slot %d, want %d", i, got, want[i])
		}
	}

	// clear keeps storage but drops every entry.
	tab.clear()
	if tab.len() != 0 {
		t.Fatalf("len after clear = %d", tab.len())
	}
	for k := range ref {
		if got := lookupKey(&tab, &st, keyVals(k)); got >= 0 {
			t.Fatalf("lookup %d after clear = slot %d", k, got)
		}
	}
}
