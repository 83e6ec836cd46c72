// Package tuple defines stream schemas and tuples.
//
// A Schema names the fields of a stream and marks which attributes are
// ordered — Gigascope's mechanism for unblocking aggregation: query
// evaluation windows are derived from how queries reference ordered
// attributes, and the sampling operator closes its window whenever any
// ordered group-by expression changes value.
package tuple

import (
	"fmt"
	"strings"

	"streamop/internal/value"
)

// Ordering describes how an attribute's values progress along the stream.
type Ordering uint8

const (
	// Unordered attributes carry no monotonicity guarantee.
	Unordered Ordering = iota
	// Increasing attributes are non-decreasing along the stream (e.g.
	// packet timestamps).
	Increasing
	// Decreasing attributes are non-increasing along the stream.
	Decreasing
)

func (o Ordering) String() string {
	switch o {
	case Unordered:
		return "unordered"
	case Increasing:
		return "increasing"
	case Decreasing:
		return "decreasing"
	}
	return "ordering(?)"
}

// Field describes one attribute of a stream schema.
type Field struct {
	Name     string
	Kind     value.Kind
	Ordering Ordering
}

// Schema is an ordered list of named, typed fields. Schemas are immutable
// after construction.
type Schema struct {
	name   string
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema. Field names must be unique (case-insensitive,
// matching the GSQL dialect); it returns an error otherwise.
func NewSchema(name string, fields ...Field) (*Schema, error) {
	s := &Schema{
		name:   name,
		fields: append([]Field(nil), fields...),
		index:  make(map[string]int, len(fields)),
	}
	for i, f := range s.fields {
		key := strings.ToLower(f.Name)
		if key == "" {
			return nil, fmt.Errorf("tuple: schema %q: field %d has empty name", name, i)
		}
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("tuple: schema %q: duplicate field %q", name, f.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(name string, fields ...Field) *Schema {
	s, err := NewSchema(name, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the stream name.
func (s *Schema) Name() string { return s.name }

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field descriptor.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Lookup returns the index of the named field (case-insensitive) and
// whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// String renders the schema in declaration form.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
		if f.Ordering != Unordered {
			b.WriteByte(' ')
			b.WriteString(f.Ordering.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// A Tuple is one record of a stream: a slice of values positionally
// matching a Schema. Tuples are treated as immutable once handed to an
// operator.
type Tuple []value.Value

// String renders the tuple as a comma-separated row.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// slabRows is how many tuples share one of a Slab's backing arrays: large
// enough that copying a row costs 1/256 of an allocation, small enough that
// a consumer holding one row pins a few tens of kilobytes, not a window.
const slabRows = 256

// A Slab makes independent copies of rows out of backing arrays it
// allocates slabRows tuples at a time — Row for a hand-off that copies
// every row of a stream and must not allocate for each. A copy is never
// written again: it stays valid for as long as its holder keeps it, and
// keeps its backing array (its neighbours included) alive that long. The
// zero Slab is ready to use; a Slab is not safe for concurrent use.
type Slab struct {
	free []value.Value
}

// Row returns row i of cols as a tuple that shares no memory with them.
func (s *Slab) Row(cols []*Column, i int) Tuple {
	n := len(cols)
	if len(s.free) < n {
		s.free = make([]value.Value, slabRows*n)
	}
	c := s.free[:n:n]
	s.free = s.free[n:]
	return RowOf(c, cols, i)
}

// Key is a hashable composite of values used as a group or supergroup key.
// Building a Key hashes and stores the component values; Keys compare equal
// iff all components compare equal.
type Key struct {
	hash uint64
	vals []value.Value
}

// MakeKey builds a key from vals. The slice is copied.
func MakeKey(vals []value.Value) Key {
	return Key{hash: HashValues(vals), vals: append([]value.Value(nil), vals...)}
}

// HashValues returns the hash MakeKey would assign, without copying —
// the allocation-free probe for hot-path group lookups.
func HashValues(vals []value.Value) uint64 {
	h := uint64(len(vals)) * 0x9e3779b97f4a7c15
	for _, v := range vals {
		h = value.Hash(v, h)
	}
	return h
}

// Hash returns the key's 64-bit hash.
func (k Key) Hash() uint64 { return k.hash }

// Values returns the key's component values. Callers must not modify the
// returned slice.
func (k Key) Values() []value.Value { return k.vals }

// Equal reports whether two keys have identical components.
func (k Key) Equal(o Key) bool {
	if k.hash != o.hash || len(k.vals) != len(o.vals) {
		return false
	}
	for i := range k.vals {
		if !value.Equal(k.vals[i], o.vals[i]) {
			return false
		}
	}
	return true
}

// EqualValues reports whether the key's components equal vals, without
// building a Key for the comparison.
func (k Key) EqualValues(vals []value.Value) bool {
	if len(k.vals) != len(vals) {
		return false
	}
	for i := range k.vals {
		if !value.Equal(k.vals[i], vals[i]) {
			return false
		}
	}
	return true
}

// String renders the key for diagnostics.
func (k Key) String() string {
	parts := make([]string, len(k.vals))
	for i, v := range k.vals {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, "|") + "]"
}
