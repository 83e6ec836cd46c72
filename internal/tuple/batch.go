// Columnar tuple batches: the vectorized record format of the ring →
// operator hot path.
//
// A Batch holds up to a few hundred tuples in struct-of-arrays layout,
// modeled on Myria's TupleBatch: one Column per schema field, each storing
// the raw 64-bit payloads (value.Value.Bits) in a dense []uint64 beside a
// parallel kind byte per row, with string payloads out of band. Producers
// fill batches column-major (one tight loop per field, no per-value kind
// dispatch); consumers either read whole columns (vectorized expression
// kernels, see gsql's vec compiler) or materialize single rows back into
// scalar Tuples for code that stays row-at-a-time.
//
// Selection-vector convention: predicate evaluation never moves data.
// A selection vector is an ascending list of row indices ([]int32) into
// the dense batch; nil means "all rows". WHERE evaluation produces or
// refines a selection vector and downstream stages iterate it, so a batch
// whose rows are 97% filtered still pays the grouping path for only the
// 3% that survive. Bitmap is the word-packed mask form used while
// combining predicates (AND/OR are single word ops); it converts to the
// index form once, when evaluation finishes.
//
// Null/validity convention: NULL is a value kind (value.Null), so a
// column's validity rides in its kind bytes — Column.Valid(i) is simply
// kinds[i] != value.Null. There is no separate validity bitmap to keep
// in sync, and mixed-kind columns (legal: high-level node schemas are
// dynamically typed) degrade gracefully: Uniform reports whether a column
// holds one kind for every row, which is what unlocks the tight
// single-kind kernel loops.
package tuple

import (
	"math/bits"
	"slices"

	"streamop/internal/value"
)

// mixedKinds marks a column whose rows do not share one kind. It is an
// out-of-range Kind used only as a sentinel inside Column.
const mixedKinds = value.Kind(0xff)

// Column is one attribute's values across a batch, stored as raw payload
// words plus a kind byte per row. The zero Column is an empty column.
type Column struct {
	kinds []value.Kind
	bits  []uint64
	strs  []string // allocated lazily, only when a String value is stored
	// uniform caches the kind shared by every row (mixedKinds when rows
	// disagree; meaningless while the column is empty).
	uniform value.Kind
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.kinds) }

// Reset empties the column, keeping its storage for reuse.
func (c *Column) Reset() {
	c.kinds = c.kinds[:0]
	c.bits = c.bits[:0]
	if c.strs != nil {
		c.strs = c.strs[:0]
	}
	c.uniform = value.Null
}

// Uniform reports the kind shared by every row of the column, and whether
// such a kind exists. An empty column is not uniform.
func (c *Column) Uniform() (value.Kind, bool) {
	if len(c.kinds) == 0 || c.uniform == mixedKinds {
		return value.Null, false
	}
	return c.uniform, true
}

// Kinds exposes the per-row kind bytes. Callers must not resize it.
func (c *Column) Kinds() []value.Kind { return c.kinds }

// Bits exposes the raw per-row payload words (value.Value.Bits). Kernel
// loops index it directly; rows whose kind is String or Null carry 0.
func (c *Column) Bits() []uint64 { return c.bits }

// Str returns the string of row i, which must be a String row: Value(i)'s
// payload without boxing it.
func (c *Column) Str(i int) string { return c.strs[i] }

// Valid reports whether row i holds a non-NULL value.
func (c *Column) Valid(i int) bool { return c.kinds[i] != value.Null }

// Value materializes row i as a scalar value.
func (c *Column) Value(i int) value.Value {
	switch k := c.kinds[i]; k {
	case value.String:
		return value.NewString(c.strs[i])
	case value.Null:
		return value.Value{}
	default:
		return value.FromBits(k, c.bits[i])
	}
}

// noteKind folds one appended row's kind into the uniform cache.
func (c *Column) noteKind(k value.Kind) {
	if len(c.kinds) == 1 {
		c.uniform = k
	} else if c.uniform != k {
		c.uniform = mixedKinds
	}
}

// AppendBits appends one numeric or Bool row from its raw payload — the
// producer fast path (no kind dispatch, no string bookkeeping).
func (c *Column) AppendBits(k value.Kind, payload uint64) {
	c.kinds = append(c.kinds, k)
	c.bits = append(c.bits, payload)
	if c.strs != nil {
		c.strs = append(c.strs, "")
	}
	c.noteKind(k)
}

// Extend appends n rows of kind k and returns their payload words for
// the caller to fill — the bulk producer fast path: slice growth and kind
// bookkeeping happen once per column run instead of once per row. The
// caller must overwrite every returned word (recycled storage is not
// zeroed). Kind String is not supported (bulk producers emit numeric or
// Bool runs).
func (c *Column) Extend(k value.Kind, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	old := len(c.kinds)
	total := old + n
	if cap(c.kinds) < total {
		grown := make([]value.Kind, total, 2*total)
		copy(grown, c.kinds)
		c.kinds = grown
	} else {
		c.kinds = c.kinds[:total]
	}
	for i := old; i < total; i++ {
		c.kinds[i] = k
	}
	if cap(c.bits) < total {
		grown := make([]uint64, total, 2*total)
		copy(grown, c.bits)
		c.bits = grown
	} else {
		c.bits = c.bits[:total]
	}
	if c.strs != nil {
		for len(c.strs) < total {
			c.strs = append(c.strs, "")
		}
	}
	if old == 0 {
		c.uniform = k
	} else if c.uniform != k {
		c.uniform = mixedKinds
	}
	return c.bits[old:total]
}

// AppendValue appends one row of any kind.
func (c *Column) AppendValue(v value.Value) {
	k := v.Kind()
	c.kinds = append(c.kinds, k)
	if k == value.String {
		if c.strs == nil {
			c.strs = make([]string, len(c.kinds)-1, cap(c.kinds))
		}
		c.bits = append(c.bits, 0)
		c.strs = append(c.strs, v.Str())
	} else {
		c.bits = append(c.bits, v.Bits())
		if c.strs != nil {
			c.strs = append(c.strs, "")
		}
	}
	c.noteKind(k)
}

// AppendFrom appends row i of src — AppendValue(src.Value(i)) without
// boxing the value.
func (c *Column) AppendFrom(src *Column, i int) {
	k := src.kinds[i]
	if k == value.String {
		c.AppendValue(value.NewString(src.strs[i]))
		return
	}
	c.AppendBits(k, src.bits[i])
}

// Gather appends src's rows at the positions sel, in order, or every row
// of src when sel is nil: the column-to-column copy of the edge between
// query nodes, and of a window's group keys into its output. Kind-uniform
// numeric or Bool sources (every PKT-derived column) move as runs of raw
// words; String-bearing and mixed-kind sources go row by row.
func (c *Column) Gather(src *Column, sel []int32) {
	n := len(sel)
	if sel == nil {
		n = src.Len()
	}
	if n == 0 {
		return
	}
	k, uniform := src.Uniform()
	if !uniform || src.strs != nil {
		if sel == nil {
			for i := 0; i < n; i++ {
				c.AppendFrom(src, i)
			}
		} else {
			for _, i := range sel {
				c.AppendFrom(src, int(i))
			}
		}
		return
	}
	dst := c.Extend(k, n)
	if sel == nil {
		copy(dst, src.bits)
		return
	}
	for j, i := range sel {
		dst[j] = src.bits[i]
	}
}

// SetUniform prepares the column to hold n rows of one kind and returns
// the zeroed payload slice for the caller to fill — the kernel output
// path. Kind String is not supported (kernels produce numeric or Bool
// vectors).
func (c *Column) SetUniform(k value.Kind, n int) []uint64 {
	// The two slices grow apart when rows were appended one by one.
	if cap(c.kinds) < n || cap(c.bits) < n {
		c.kinds = make([]value.Kind, n)
		c.bits = make([]uint64, n)
	} else {
		c.kinds = c.kinds[:n]
		c.bits = c.bits[:n]
		for i := range c.bits {
			c.bits[i] = 0
		}
	}
	for i := range c.kinds {
		c.kinds[i] = k
	}
	c.strs = nil
	c.uniform = k
	if n == 0 {
		c.uniform = value.Null
	}
	return c.bits
}

// SetValue overwrites row i (used by generic per-row evaluation into a
// prepared column). The uniform cache degrades to mixed when kinds
// diverge.
func (c *Column) SetValue(i int, v value.Value) {
	k := v.Kind()
	c.kinds[i] = k
	if k == value.String {
		if c.strs == nil {
			c.strs = make([]string, len(c.kinds))
		}
		for len(c.strs) < len(c.kinds) {
			c.strs = append(c.strs, "")
		}
		c.strs[i] = v.Str()
		c.bits[i] = 0
	} else {
		c.bits[i] = v.Bits()
	}
	if c.uniform != k {
		c.uniform = mixedKinds
	}
}

// EqualValue reports whether row i compares equal (value.Equal semantics)
// to v, with a raw-bits fast path for same-kind rows.
func (c *Column) EqualValue(i int, v value.Value) bool {
	k := c.kinds[i]
	if k == v.Kind() {
		switch k {
		case value.Null:
			return true
		case value.String:
			return c.strs[i] == v.Str()
		case value.Float:
			if c.bits[i] == v.Bits() {
				return true
			}
			// +0.0 and -0.0 differ in bits but compare equal.
			return value.Equal(c.Value(i), v)
		default: // Bool, Int, Uint
			return c.bits[i] == v.Bits()
		}
	}
	// Cross-kind numeric equality (e.g. Uint 5 vs Int 5) falls back to
	// full comparison.
	return value.Equal(c.Value(i), v)
}

// EqualRow reports whether row i compares equal (value.Equal semantics)
// to row j of o: EqualValue without materializing o's value.
func (c *Column) EqualRow(i int, o *Column, j int) bool {
	k := c.kinds[i]
	if k == o.kinds[j] {
		switch k {
		case value.Null:
			return true
		case value.String:
			return c.strs[i] == o.strs[j]
		case value.Float:
			if c.bits[i] == o.bits[j] {
				return true
			}
		default: // Bool, Int, Uint
			return c.bits[i] == o.bits[j]
		}
	}
	return value.Equal(c.Value(i), o.Value(j))
}

// SetFrom makes row i a copy of row j of src, appending it when i is the
// column's length: AppendFrom for a column whose rows are slots.
func (c *Column) SetFrom(i int, src *Column, j int) {
	k := src.kinds[j]
	if i == len(c.kinds) || k == value.String || c.strs != nil {
		c.setFrom(i, src, j)
		return
	}
	c.kinds[i], c.bits[i] = k, src.bits[j]
	if c.uniform != k {
		c.uniform = mixedKinds
	}
}

// setFrom is SetFrom's case of an appended row or a String column.
func (c *Column) setFrom(i int, src *Column, j int) {
	if i == len(c.kinds) {
		c.AppendFrom(src, j)
		return
	}
	c.SetValue(i, src.Value(j))
}

// Bytes reports the column's storage in bytes: its capacity, string
// headers included, string contents not.
func (c *Column) Bytes() int64 {
	return int64(cap(c.kinds)) + 8*int64(cap(c.bits)) + 16*int64(cap(c.strs))
}

// RawEqKind reports whether kind k's value equality (value.Equal against
// a same-kind value) is exactly raw payload-word equality: Bool, Int and
// Uint qualify; Float (+0.0 vs -0.0), String and Null do not.
func RawEqKind(k value.Kind) bool {
	return k == value.Bool || k == value.Int || k == value.Uint
}

// Batch is a fixed-capacity columnar batch of tuples positionally
// matching a Schema. The zero Batch is not usable; construct with
// NewBatch.
type Batch struct {
	cols []Column
	n    int
}

// DefaultBatchRows is the batch capacity the engine's ring → operator
// path uses: big enough to amortize per-batch work across hundreds of
// tuples, small enough that a batch of 8 uint64 columns stays in L1.
const DefaultBatchRows = 512

// NewBatch returns an empty batch for schema with storage for capacity
// rows (a hint — columns grow if producers exceed it).
func NewBatch(schema *Schema, capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchRows
	}
	b := &Batch{cols: make([]Column, schema.NumFields())}
	for i := range b.cols {
		b.cols[i].kinds = make([]value.Kind, 0, capacity)
		b.cols[i].bits = make([]uint64, 0, capacity)
	}
	return b
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.cols) }

// Col returns column i for direct (column-major) access.
func (b *Batch) Col(i int) *Column { return &b.cols[i] }

// Reset empties the batch for refilling, keeping column storage.
func (b *Batch) Reset() {
	for i := range b.cols {
		b.cols[i].Reset()
	}
	b.n = 0
}

// AppendRow appends one tuple (len(t) must equal the schema's field
// count): how Operator.Process makes its tuple a batch of one.
// TestAppendColsMatchesAppendRow holds AppendCols to it.
func (b *Batch) AppendRow(t Tuple) {
	for i := range b.cols {
		b.cols[i].AppendValue(t[i])
	}
	b.n++
}

// AppendCols appends rows given as one column per schema field. cols must
// all have the same length.
func (b *Batch) AppendCols(cols []*Column) {
	for i := range b.cols {
		b.cols[i].Gather(cols[i], nil)
	}
	b.n += cols[0].Len()
}

// AddRows records n rows appended directly to the columns by a
// column-major producer (which must have appended exactly n rows to every
// column).
func (b *Batch) AddRows(n int) { b.n += n }

// Value returns the value at (col, row).
func (b *Batch) Value(col, row int) value.Value { return b.cols[col].Value(row) }

// Row materializes row i into dst, growing it as needed, and returns it.
func (b *Batch) Row(i int, dst Tuple) Tuple {
	if cap(dst) < len(b.cols) {
		dst = make(Tuple, len(b.cols))
	}
	dst = dst[:len(b.cols)]
	for c := range b.cols {
		dst[c] = b.cols[c].Value(i)
	}
	return dst
}

// RowOf returns the tuple whose fields are row i of cols — one row of an
// operator's output, for a consumer that takes rows — built in dst's
// storage when that is large enough (nil allocates a fresh tuple).
func RowOf(dst Tuple, cols []*Column, i int) Tuple {
	if cap(dst) < len(cols) {
		dst = make(Tuple, len(cols))
	}
	dst = dst[:len(cols)]
	for c, col := range cols {
		dst[c] = col.Value(i)
	}
	return dst
}

// HashRow returns the group-key hash of the given columns at row —
// bit-identical to HashValues over the same values, which is what lets
// the sharded router, the operator's group table and its snapshots agree
// on every slot and key.
func HashRow(cols []*Column, row int) uint64 {
	h := uint64(len(cols)) * 0x9e3779b97f4a7c15
	for _, c := range cols {
		if k := c.kinds[row]; k != value.String {
			h = value.HashBits(k, c.bits[row], h)
		} else {
			h = value.Hash(value.NewString(c.strs[row]), h)
		}
	}
	return h
}

// hashAt folds row's value into the hash h.
func (c *Column) hashAt(row int, h uint64) uint64 {
	if k := c.kinds[row]; k != value.String {
		return value.HashBits(k, c.bits[row], h)
	}
	return value.Hash(value.NewString(c.strs[row]), h)
}

// HashRows is HashRow over many rows, column-major: it sets dst to the
// hashes of the given columns at the rows sel, in order, or at rows
// [0, n) when sel is nil, and returns it. A kind-uniform Int or Uint
// column folds in as one tight loop over its words. The operator's runs,
// the partial-aggregation table and the shard router hash through it.
func HashRows(dst []uint64, cols []*Column, sel []int32, n int) []uint64 {
	if sel != nil {
		n = len(sel)
	}
	dst = slices.Grow(dst[:0], n)[:n]
	seed := uint64(len(cols)) * 0x9e3779b97f4a7c15
	for i := range dst {
		dst[i] = seed
	}
	for _, c := range cols {
		k, uniform := c.Uniform()
		words := c.bits
		switch {
		case uniform && (k == value.Int || k == value.Uint) && sel == nil:
			for i, w := range words[:n] {
				dst[i] = value.HashInt(w, dst[i])
			}
		case uniform && (k == value.Int || k == value.Uint):
			for i, r := range sel {
				dst[i] = value.HashInt(words[r], dst[i])
			}
		case sel == nil:
			for i := range dst {
				dst[i] = c.hashAt(i, dst[i])
			}
		default:
			for i, r := range sel {
				dst[i] = c.hashAt(int(r), dst[i])
			}
		}
	}
	return dst
}

// Bitmap is a word-packed row mask used while combining vectorized
// predicates: AND/OR/NOT over batches are single word operations. It
// converts to the index-list selection form with AppendIndices once
// predicate evaluation finishes.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n rows, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Resize clears the bitmap and adjusts it to cover n rows.
func (m Bitmap) Resize(n int) Bitmap {
	words := (n + 63) / 64
	if cap(m) < words {
		return make(Bitmap, words)
	}
	m = m[:words]
	for i := range m {
		m[i] = 0
	}
	return m
}

// Set marks row i.
func (m Bitmap) Set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is marked.
func (m Bitmap) Get(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll marks rows [0, n).
func (m Bitmap) SetAll(n int) {
	for i := range m {
		m[i] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 && len(m) > 0 {
		m[len(m)-1] = (1 << r) - 1
	}
}

// Count returns the number of marked rows.
func (m Bitmap) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendIndices appends the marked row indices, ascending, to dst —
// the bitmap → selection-vector conversion.
func (m Bitmap) AppendIndices(dst []int32) []int32 {
	for wi, w := range m {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
