package tuple

import (
	"math"
	"testing"

	"streamop/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("T",
		Field{Name: "a", Kind: value.Uint, Ordering: Increasing},
		Field{Name: "b", Kind: value.Int},
		Field{Name: "c", Kind: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBatchRoundTrip(t *testing.T) {
	s := testSchema(t)
	b := NewBatch(s, 4)
	rows := []Tuple{
		{value.NewUint(1), value.NewInt(-5), value.NewString("x")},
		{value.NewUint(2), value.NewInt(0), value.NewString("")},
		{value.NewUint(3), value.Value{}, value.NewString("yz")},
	}
	for _, r := range rows {
		b.AppendRow(r)
	}
	if b.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(rows))
	}
	var scratch Tuple
	for i, want := range rows {
		scratch = b.Row(i, scratch)
		for c := range want {
			if !value.Equal(scratch[c], want[c]) {
				t.Errorf("row %d col %d = %v, want %v", i, c, scratch[c], want[c])
			}
			if got := b.Value(c, i); !value.Equal(got, want[c]) {
				t.Errorf("Value(%d,%d) = %v, want %v", c, i, got, want[c])
			}
		}
	}
	if b.Col(1).Valid(2) {
		t.Error("Valid on NULL row = true")
	}
	if !b.Col(1).Valid(0) {
		t.Error("Valid on non-NULL row = false")
	}
}

func TestBatchResetKeepsStorage(t *testing.T) {
	s := testSchema(t)
	b := NewBatch(s, 8)
	b.AppendRow(Tuple{value.NewUint(1), value.NewInt(2), value.NewString("s")})
	b.Reset()
	if b.Len() != 0 || b.Col(0).Len() != 0 {
		t.Fatalf("after Reset: Len = %d, col len = %d", b.Len(), b.Col(0).Len())
	}
	b.AppendRow(Tuple{value.NewUint(7), value.NewInt(8), value.NewString("t")})
	if got := b.Value(2, 0); got.Str() != "t" {
		t.Fatalf("after refill: Value(2,0) = %v", got)
	}
}

func TestColumnUniform(t *testing.T) {
	var c Column
	if _, ok := c.Uniform(); ok {
		t.Error("empty column reports uniform")
	}
	c.AppendBits(value.Uint, 1)
	c.AppendBits(value.Uint, 2)
	if k, ok := c.Uniform(); !ok || k != value.Uint {
		t.Errorf("Uniform = %v,%v want uint,true", k, ok)
	}
	c.AppendValue(value.NewInt(3))
	if _, ok := c.Uniform(); ok {
		t.Error("mixed column reports uniform")
	}
	c.Reset()
	c.AppendValue(value.NewString("s"))
	if k, ok := c.Uniform(); !ok || k != value.String {
		t.Errorf("after Reset: Uniform = %v,%v want string,true", k, ok)
	}
}

func TestColumnSetUniform(t *testing.T) {
	var c Column
	bits := c.SetUniform(value.Float, 3)
	for i := range bits {
		bits[i] = math.Float64bits(float64(i) + 0.5)
	}
	if k, ok := c.Uniform(); !ok || k != value.Float {
		t.Fatalf("Uniform = %v,%v", k, ok)
	}
	if got := c.Value(2); got.Float() != 2.5 {
		t.Fatalf("Value(2) = %v", got)
	}
	// SetValue with a diverging kind degrades the uniform cache.
	c.SetValue(1, value.NewString("mid"))
	if _, ok := c.Uniform(); ok {
		t.Error("column uniform after mixed SetValue")
	}
	if got := c.Value(1); got.Str() != "mid" {
		t.Fatalf("Value(1) = %v", got)
	}
	if got := c.Value(0); got.Float() != 0.5 {
		t.Fatalf("Value(0) = %v", got)
	}
}

// A column filled row by row grows its kind bytes and its payload words
// by append, each to its own size class, so one can have room for n rows
// when the other has not: SetUniform has to look at both. (It looked at
// the kinds only and sliced the words past their capacity — the panic
// TestSelectBatchMixedKindsQuick hit about one run in ten.)
func TestColumnSetUniformAfterAppends(t *testing.T) {
	var c Column
	c.AppendValue(value.NewInt(1))
	if cap(c.Kinds()) <= cap(c.Bits()) {
		t.Skipf("append grew kinds to %d and words to %d: no gap to test", cap(c.Kinds()), cap(c.Bits()))
	}
	n := cap(c.Kinds())
	if bits := c.SetUniform(value.Int, n); len(bits) != n || c.Len() != n {
		t.Fatalf("SetUniform(%d): %d words, %d rows", n, len(bits), c.Len())
	}
}

// HashRow must agree bit-for-bit with HashValues: the sharded router and
// the operator group table key on it.
func TestHashRowMatchesHashValues(t *testing.T) {
	rows := []Tuple{
		{value.NewUint(42), value.NewInt(-1), value.NewString("k")},
		{value.NewFloat(5), value.NewInt(5), value.NewString("")},
		{value.Value{}, value.NewBool(true), value.NewFloat(2.25)},
		{value.NewUint(0), value.NewInt(0), value.NewString("\x00")},
	}
	s, err := NewSchema("H", Field{Name: "x"}, Field{Name: "y"}, Field{Name: "z"})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(s, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	cols := []*Column{b.Col(0), b.Col(1), b.Col(2)}
	for i, r := range rows {
		if got, want := HashRow(cols, i), HashValues(r); got != want {
			t.Errorf("row %d: HashRow = %#x, HashValues = %#x", i, got, want)
		}
	}
	// Float canonicalization must survive columnar storage: an integral
	// float keys the same group as the equal integer.
	sub := cols[:1]
	b2 := NewBatch(s, 2)
	b2.Col(0).AppendValue(value.NewFloat(5))
	b2.Col(0).AppendValue(value.NewInt(5))
	if h0, h1 := HashRow([]*Column{b2.Col(0)}, 0), HashRow([]*Column{b2.Col(0)}, 1); h0 != h1 {
		t.Errorf("float(5) and int(5) hash apart: %#x vs %#x", h0, h1)
	}
	_ = sub
}

// TestHashRowsMatchesHashRow holds the column-major kernel to HashRow row
// by row, for every kind and for mixed-kind columns, over a range and over
// a selection vector: snapshot goldens store these hashes, and the
// partial-aggregation table's slots and the router's shards follow them.
func TestHashRowsMatchesHashRow(t *testing.T) {
	kinds := map[string][]value.Value{
		"null":     {{}, {}, {}, {}, {}},
		"bool":     {value.NewBool(true), value.NewBool(false), value.NewBool(true), value.NewBool(false), value.NewBool(true)},
		"int":      {value.NewInt(-1), value.NewInt(0), value.NewInt(5), value.NewInt(math.MinInt64), value.NewInt(1 << 40)},
		"uint":     {value.NewUint(0), value.NewUint(5), value.NewUint(math.MaxUint64), value.NewUint(7), value.NewUint(1 << 33)},
		"integral": {value.NewFloat(5), value.NewFloat(-3), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1 << 52)},
		"float":    {value.NewFloat(2.25), value.NewFloat(-0.5), value.NewFloat(math.Inf(1)), value.NewFloat(1e300), value.NewFloat(math.NaN())},
		"string":   {value.NewString("k"), value.NewString(""), value.NewString("\x00"), value.NewString("srcIP"), value.NewString("k")},
		"mixed":    {value.NewInt(5), value.NewString("5"), value.NewFloat(5), value.Value{}, value.NewUint(5)},
		"numeric":  {value.NewUint(9), value.NewInt(-9), value.NewFloat(9.5), value.NewBool(true), value.NewInt(9)},
	}
	col := func(vals []value.Value) *Column {
		c := new(Column)
		for _, v := range vals {
			c.AppendValue(v)
		}
		return c
	}
	sets := [][]string{{"null"}, {"bool"}, {"int"}, {"uint"}, {"integral"}, {"float"}, {"string"}, {"mixed"}, {"numeric"},
		{"int", "uint", "string"}, {"uint", "mixed", "float", "bool"}, {"null", "integral", "int"}}
	sels := [][]int32{nil, {}, {0}, {4}, {1, 3}, {0, 2, 4}, {4, 0, 2, 2}}
	dst := make([]uint64, 0, 1)
	for _, set := range sets {
		var cols []*Column
		for _, k := range set {
			cols = append(cols, col(kinds[k]))
		}
		for _, sel := range sels {
			for _, n := range []int{0, 3, 5} {
				dst = HashRows(dst, cols, sel, n)
				want := n
				if sel != nil {
					want = len(sel)
				}
				if len(dst) != want {
					t.Fatalf("%v sel %v n %d: %d hashes, want %d", set, sel, n, len(dst), want)
				}
				for i, h := range dst {
					row := i
					if sel != nil {
						row = int(sel[i])
					}
					if w := HashRow(cols, row); h != w {
						t.Errorf("%v sel %v: row %d: HashRows = %#x, HashRow = %#x", set, sel, row, h, w)
					}
				}
			}
		}
	}
}

func TestColumnEqualValue(t *testing.T) {
	var c Column
	c.AppendValue(value.NewUint(5))
	c.AppendValue(value.NewFloat(0))
	c.AppendValue(value.NewString("ab"))
	c.AppendValue(value.Value{})
	cases := []struct {
		row  int
		v    value.Value
		want bool
	}{
		{0, value.NewUint(5), true},
		{0, value.NewUint(6), false},
		{0, value.NewInt(5), true},                      // cross-kind numeric equality
		{0, value.NewFloat(5), true},                    // float vs uint
		{1, value.NewFloat(math.Copysign(0, -1)), true}, // -0.0 == +0.0
		{2, value.NewString("ab"), true},
		{2, value.NewString("ac"), false},
		{3, value.Value{}, true},
		{3, value.NewUint(0), false},
	}
	var o Column // the cases' values as a column, for EqualRow
	for j, tc := range cases {
		if got := c.EqualValue(tc.row, tc.v); got != tc.want {
			t.Errorf("EqualValue(%d, %v) = %v, want %v", tc.row, tc.v, got, tc.want)
		}
		o.AppendValue(tc.v)
		if got := c.EqualRow(tc.row, &o, j); got != tc.want {
			t.Errorf("EqualRow(%d, %v) = %v, want %v", tc.row, tc.v, got, tc.want)
		}
	}
}

// SetFrom writes rows of any kind into a column's existing rows, or
// appends one at the column's length, and keeps Uniform honest.
func TestColumnSetFrom(t *testing.T) {
	var src Column
	vals := []value.Value{value.NewUint(7), value.NewString("s"), value.Value{}, value.NewFloat(-0.5), value.NewUint(9)}
	for _, v := range vals {
		src.AppendValue(v)
	}
	var c Column
	c.SetFrom(0, &src, 0) // append
	c.SetFrom(1, &src, 4)
	if k, ok := c.Uniform(); !ok || k != value.Uint {
		t.Fatalf("two Uint rows: Uniform = %v, %v", k, ok)
	}
	for i, j := range []int{3, 1, 2, 0, 4, 1} {
		c.SetFrom(i%2, &src, j)
		if got := c.Value(i % 2); value.Compare(got, vals[j]) != 0 || got.Kind() != vals[j].Kind() {
			t.Fatalf("step %d: row %d = %v, want %v", i, i%2, got, vals[j])
		}
	}
	if _, ok := c.Uniform(); ok {
		t.Fatal("rows of three kinds written: still uniform")
	}
}

func TestBitmap(t *testing.T) {
	const n = 70 // straddles a word boundary
	m := NewBitmap(n)
	if m.Count() != 0 {
		t.Fatalf("fresh Count = %d", m.Count())
	}
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(69)
	if !m.Get(63) || m.Get(1) {
		t.Error("Get mismatch")
	}
	if got := m.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	idx := m.AppendIndices(nil)
	want := []int32{0, 63, 64, 69}
	if len(idx) != len(want) {
		t.Fatalf("AppendIndices = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("AppendIndices = %v, want %v", idx, want)
		}
	}

	o := NewBitmap(n)
	o.SetAll(n)
	if got := o.Count(); got != n {
		t.Errorf("SetAll Count = %d, want %d", got, n)
	}
	// Resize reuses capacity and clears.
	m = m.Resize(10)
	if len(m) != 1 || m.Count() != 0 {
		t.Errorf("Resize(10): len %d count %d", len(m), m.Count())
	}
	m = m.Resize(200)
	if len(m) != 4 || m.Count() != 0 {
		t.Errorf("Resize(200): len %d count %d", len(m), m.Count())
	}
}

func TestValueBitsRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.NewBool(true),
		value.NewBool(false),
		value.NewInt(-9),
		value.NewUint(1 << 63),
		value.NewFloat(-2.5),
	}
	for _, v := range vals {
		if got := value.FromBits(v.Kind(), v.Bits()); !value.Equal(got, v) || got.Kind() != v.Kind() {
			t.Errorf("FromBits(Bits(%v)) = %v", v, got)
		}
	}
	if got := value.FromBits(value.String, 7); !got.IsNull() {
		t.Errorf("FromBits(String) = %v, want NULL", got)
	}
}

// gatherRows are rows of every shape the edge between nodes carries:
// one-kind numeric columns, NULLs, a kind change mid-column, strings.
func gatherRows() []Tuple {
	return []Tuple{
		{value.NewUint(1), value.NewInt(-5), value.NewString("x")},
		{value.NewUint(2), value.NewInt(0), value.NewString("")},
		{value.NewUint(3), value.Value{}, value.NewString("yz")},
		{value.NewUint(4), value.NewFloat(2.5), value.Value{}},
		{value.NewUint(5), value.NewInt(9), value.NewInt(7)},
	}
}

func requireRows(t *testing.T, label string, b *Batch, want []Tuple) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, b.Len(), len(want))
	}
	for i, w := range want {
		got := b.Row(i, nil)
		for c := range w {
			if got[c].Kind() != w[c].Kind() || !value.Equal(got[c], w[c]) {
				t.Fatalf("%s: row %d col %d = %v (%v), want %v (%v)", label, i, c, got[c], got[c].Kind(), w[c], w[c].Kind())
			}
		}
	}
	for c := 0; c < b.NumCols(); c++ {
		col := b.Col(c)
		if col.Len() != len(want) {
			t.Fatalf("%s: column %d has %d rows, want %d", label, c, col.Len(), len(want))
		}
		if k, ok := col.Uniform(); ok {
			for i := range want {
				if want[i][c].Kind() != k {
					t.Fatalf("%s: column %d claims uniform kind %v, row %d is %v", label, c, k, i, want[i][c].Kind())
				}
			}
		}
	}
}

// Columns gathered with and without a selection and appended with
// AppendCols equal AppendRow of the same rows, whatever the destination
// already holds.
func TestAppendColsMatchesAppendRow(t *testing.T) {
	s := testSchema(t)
	rows := gatherRows()
	src := NewBatch(s, 0)
	for _, r := range rows {
		src.AppendRow(r)
	}
	for _, sel := range [][]int32{nil, {0}, {1, 3}, {0, 1, 2, 3, 4}, {2, 4}} {
		cols := []*Column{src.Col(0), src.Col(1), src.Col(2)}
		picked := rows
		if sel != nil {
			picked = nil
			for c := range cols {
				g := &Column{}
				g.Gather(src.Col(c), sel)
				cols[c] = g
			}
			for _, i := range sel {
				picked = append(picked, rows[i])
			}
		}
		for _, prefill := range []int{0, 2} {
			dst := NewBatch(s, 0)
			var want []Tuple
			for _, r := range rows[:prefill] {
				dst.AppendRow(r)
				want = append(want, r)
			}
			dst.AppendCols(cols)
			want = append(want, picked...)
			requireRows(t, "AppendCols", dst, want)
			// A second append lands behind the first.
			dst.AppendCols(cols)
			requireRows(t, "AppendCols twice", dst, append(want, picked...))
		}
	}
}

// RowOf reads a row out of columns into the tuple it is given, and into a
// fresh one when given none or one too small.
func TestRowOfReusesStorage(t *testing.T) {
	s := testSchema(t)
	rows := gatherRows()
	b := NewBatch(s, 0)
	for _, r := range rows {
		b.AppendRow(r)
	}
	cols := []*Column{b.Col(0), b.Col(1), b.Col(2)}
	fresh := RowOf(nil, cols, 1)
	if fresh.String() != rows[1].String() {
		t.Fatalf("RowOf(nil) = %v, want %v", fresh, rows[1])
	}
	scratch := make(Tuple, 1, 8)
	for i, want := range rows {
		got := RowOf(scratch, cols, i)
		if got.String() != want.String() {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
		if &got[0] != &scratch[0] {
			t.Fatalf("row %d was built outside the scratch tuple", i)
		}
	}
	if fresh.String() != rows[1].String() {
		t.Errorf("a tuple RowOf allocated was overwritten through another: %v", fresh)
	}
	if got := RowOf(make(Tuple, 0, 1), cols, 2); got.String() != rows[2].String() {
		t.Errorf("RowOf into too small a tuple = %v, want %v", got, rows[2])
	}
}

// Gather of a one-kind numeric column moves raw words and keeps the
// column marked uniform, so the kernels behind the edge keep their
// typed loops.
func TestGatherKeepsUniform(t *testing.T) {
	var src, dst Column
	for i := 0; i < 10; i++ {
		src.AppendBits(value.Uint, uint64(i*i))
	}
	dst.Gather(&src, []int32{1, 3, 9})
	dst.Gather(&src, nil)
	if k, ok := dst.Uniform(); !ok || k != value.Uint || dst.Len() != 13 {
		t.Fatalf("uniform = %v %v, len %d", k, ok, dst.Len())
	}
	if got := dst.Bits()[:4]; got[0] != 1 || got[1] != 9 || got[2] != 81 || got[3] != 0 {
		t.Fatalf("bits = %v", got)
	}
	var ints Column
	ints.AppendBits(value.Int, 5)
	dst.Gather(&ints, nil)
	if _, ok := dst.Uniform(); ok {
		t.Fatal("column still uniform after an Int row joined Uint rows")
	}
}
