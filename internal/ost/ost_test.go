package ost

import (
	"sort"
	"testing"
	"testing/quick"

	"streamop/internal/value"
	"streamop/internal/xrand"
)

func TestEmpty(t *testing.T) {
	tr := New(1)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Kth(1); ok {
		t.Error("Kth(1) on empty tree ok")
	}
	if _, ok := tr.Min(); ok {
		t.Error("Min on empty tree ok")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max on empty tree ok")
	}
	if tr.Delete(value.NewInt(1)) {
		t.Error("Delete on empty tree returned true")
	}
	if tr.Rank(value.NewInt(5)) != 0 {
		t.Error("Rank on empty tree != 0")
	}
}

func TestInsertKth(t *testing.T) {
	tr := New(1)
	for _, v := range []int64{5, 3, 8, 1, 9, 7, 2, 6, 4} {
		tr.Insert(value.NewInt(v))
	}
	if tr.Len() != 9 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for k := 1; k <= 9; k++ {
		v, ok := tr.Kth(k)
		if !ok || v.Int() != int64(k) {
			t.Errorf("Kth(%d) = %v, %v", k, v, ok)
		}
	}
	if _, ok := tr.Kth(0); ok {
		t.Error("Kth(0) ok")
	}
	if _, ok := tr.Kth(10); ok {
		t.Error("Kth(10) ok")
	}
}

func TestDuplicates(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Insert(value.NewInt(7))
	}
	tr.Insert(value.NewInt(3))
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, _ := tr.Kth(1); v.Int() != 3 {
		t.Errorf("Kth(1) = %v", v)
	}
	for k := 2; k <= 6; k++ {
		if v, _ := tr.Kth(k); v.Int() != 7 {
			t.Errorf("Kth(%d) = %v", k, v)
		}
	}
	if tr.Rank(value.NewInt(7)) != 1 {
		t.Errorf("Rank(7) = %d", tr.Rank(value.NewInt(7)))
	}
	if !tr.Delete(value.NewInt(7)) {
		t.Error("Delete(7) failed")
	}
	if tr.Len() != 5 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
}

func TestDeleteAllShapes(t *testing.T) {
	// Delete interior nodes with two children to exercise rotations.
	tr := New(3)
	vals := []int64{50, 25, 75, 12, 37, 62, 87, 6, 18, 31, 43}
	for _, v := range vals {
		tr.Insert(value.NewInt(v))
	}
	for _, v := range vals {
		if !tr.Delete(value.NewInt(v)) {
			t.Errorf("Delete(%d) failed", v)
		}
		if tr.Contains(value.NewInt(v)) {
			t.Errorf("Contains(%d) after delete", v)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len after deleting all = %d", tr.Len())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New(4)
	tr.Insert(value.NewInt(1))
	if tr.Delete(value.NewInt(2)) {
		t.Error("Delete(missing) returned true")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestRank(t *testing.T) {
	tr := New(5)
	for _, v := range []int64{10, 20, 20, 30} {
		tr.Insert(value.NewInt(v))
	}
	cases := []struct {
		v    int64
		want int
	}{{5, 0}, {10, 0}, {15, 1}, {20, 1}, {25, 3}, {30, 3}, {35, 4}}
	for _, tc := range cases {
		if got := tr.Rank(value.NewInt(tc.v)); got != tc.want {
			t.Errorf("Rank(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestMinMaxAscend(t *testing.T) {
	tr := New(6)
	for _, v := range []int64{4, 2, 6, 2} {
		tr.Insert(value.NewInt(v))
	}
	if v, ok := tr.Min(); !ok || v.Int() != 2 {
		t.Errorf("Min = %v, %v", v, ok)
	}
	if v, ok := tr.Max(); !ok || v.Int() != 6 {
		t.Errorf("Max = %v, %v", v, ok)
	}
	// Kth(1..Len) walks the elements in ascending order, duplicates once
	// per occurrence.
	var got []int64
	for k := 1; k <= tr.Len(); k++ {
		v, _ := tr.Kth(k)
		got = append(got, v.Int())
	}
	want := []int64{2, 2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("ascending walk yielded %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ascending walk yielded %v, want %v", got, want)
		}
	}
}

func TestMixedKinds(t *testing.T) {
	tr := New(7)
	tr.Insert(value.NewFloat(2.5))
	tr.Insert(value.NewInt(2))
	tr.Insert(value.NewUint(3))
	if v, _ := tr.Kth(1); v.AsFloat() != 2 {
		t.Errorf("Kth(1) = %v", v)
	}
	if v, _ := tr.Kth(2); v.AsFloat() != 2.5 {
		t.Errorf("Kth(2) = %v", v)
	}
	if v, _ := tr.Kth(3); v.AsFloat() != 3 {
		t.Errorf("Kth(3) = %v", v)
	}
}

// referenceModel cross-checks the treap against a sorted slice under a
// random operation sequence.
func TestAgainstReferenceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tr := New(seed ^ 0xabc)
		var ref []int64
		for op := 0; op < 400; op++ {
			v := int64(r.Intn(50))
			if r.Float64() < 0.6 {
				tr.Insert(value.NewInt(v))
				ref = append(ref, v)
				sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			} else {
				idx := sort.Search(len(ref), func(i int) bool { return ref[i] >= v })
				present := idx < len(ref) && ref[idx] == v
				if tr.Delete(value.NewInt(v)) != present {
					return false
				}
				if present {
					ref = append(ref[:idx], ref[idx+1:]...)
				}
			}
			if tr.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 {
				k := 1 + r.Intn(len(ref))
				got, ok := tr.Kth(k)
				if !ok || got.Int() != ref[k-1] {
					return false
				}
				probe := int64(r.Intn(50))
				wantRank := sort.Search(len(ref), func(i int) bool { return ref[i] >= probe })
				if tr.Rank(value.NewInt(probe)) != wantRank {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := New(1)
	r := xrand.New(2)
	for i := 0; i < b.N; i++ {
		v := value.NewInt(int64(r.Intn(1 << 20)))
		tr.Insert(v)
		if tr.Len() > 10000 {
			m, _ := tr.Min()
			tr.Delete(m)
		}
	}
}

func BenchmarkKth(b *testing.B) {
	tr := New(1)
	for i := 0; i < 100000; i++ {
		tr.Insert(value.NewInt(int64(i * 7 % 100000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Kth(i%100000 + 1)
	}
}
