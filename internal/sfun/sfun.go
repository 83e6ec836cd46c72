// Package sfun implements the STATEFUL function framework of §6.2 of the
// paper: user-defined functions that share a mutable state blob allocated
// per supergroup, initialized — possibly from the equivalent state of the
// previous time window — when the supergroup is first referenced.
//
// A StateType declares a named state with its initialization function
// (receiving the old window's state or nil, mirroring the paper's
// _sfun_state_init_<name>(new, old) prototype). A Func declares a callable
// bound to a state by name; stateless scalar functions use an empty state
// name. The sampling operator allocates one instance of each referenced
// state per supergroup and passes it implicitly on every call.
//
// A boolean predicate may be written as a Scan instead of a Call: it runs
// over a run of rows whose arguments are columns or constants, and stops at
// the first row that passes. The operator calls a predicate once per tuple
// (WHERE, CLEANING WHEN) or once per group (CLEANING BY, HAVING), so most
// calls it makes are runs of rejected rows; a Scan takes such a run in one
// call, reading its columns' words directly, instead of boxing every row's
// arguments for an indirect Call. The engine scans where nothing can
// happen between two calls: WHERE up to the next window close or traced
// row, CLEANING BY over a supergroup's groups, HAVING over a window's.
// Everywhere else — a traced row or group, a CLEANING WHEN whose argument
// moves per row, a closure — it calls the function one row at a time, and
// for a function with a Scan that Call is derived from the Scan over one
// row of constants (RegisterFunc sets it), so a family writes each
// predicate once.
package sfun

import (
	"fmt"
	"strings"

	"streamop/internal/checkpoint"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// StateType describes one shared state declared with STATE <type> <name>.
type StateType struct {
	// Name identifies the state; Funcs reference it by this name.
	Name string
	// Init allocates and initializes a state instance. old is the state
	// of the supergroup with the same non-ordered key in the previous
	// time window, or nil for an entirely new supergroup.
	Init func(old any) any
	// WindowFinal, if non-nil, is called on every live state when the
	// time window closes, before the HAVING pass (the paper's
	// final_init signal). States typically use it to arm end-of-window
	// subsampling.
	WindowFinal func(state any)

	// Encode serializes one state instance (as produced by Init) for a
	// checkpoint; Decode rebuilds it. They mirror the Init handoff: a
	// decoded state must be indistinguishable from the live one, so a
	// restored run continues the exact sampling decisions of the
	// original. State types that leave these nil are not checkpointable
	// and cause the operator's snapshot to fail with a clear error.
	Encode func(state any, e *checkpoint.Encoder) error
	Decode func(d *checkpoint.Decoder) (any, error)

	// EncodeShared / DecodeShared checkpoint registry-level context
	// shared across instances of this state type — typically the
	// per-registry instance counter that derives each new supergroup's
	// RNG seed. Restoring it guarantees supergroups created after a
	// resume draw the same seeds they would have drawn in an
	// uninterrupted run. Either both or neither must be set.
	EncodeShared func(e *checkpoint.Encoder)
	DecodeShared func(d *checkpoint.Decoder) error
}

// Func describes one stateful (or stateless scalar) function.
type Func struct {
	// Name is the call name, case-insensitive.
	Name string
	// State names the StateType this function shares; empty for a
	// stateless scalar function such as UMAX.
	State string
	// Call evaluates the function. state is nil for stateless functions.
	// A function with a Scan leaves it nil: RegisterFunc derives it.
	Call func(state any, args []value.Value) (value.Value, error)
	// Scan, if non-nil, is the function as a predicate over rows [from,
	// to) of its arguments (see ScanFunc), and Call is one row of it.
	Scan ScanFunc
}

// ScanFunc runs a boolean stateful predicate over rows [from, to) of args
// and returns the first row that passes, or to if none does. Before
// returning it has advanced state exactly as Call on each of those rows in
// order would have: the rows before the passing one (rejected), then that
// row. On an error it returns the first erring row with the error Call
// would return there; only the rows before it, and what Call does at that
// row before it errs, have mutated the state. Rows must be scanned in
// order: a caller resumes at the row after the one returned.
//
// A Scan must accept any column: kind-uniform Int, Uint or Float columns
// are the case to make fast (their words are the values), and a row of any
// other kind — NULL, String, Bool, a mixed column's — errs or passes at its
// row exactly as Call does for that value.
type ScanFunc func(state any, args Args, from, to int) (row int, err error)

// Args are a scan's arguments: argument i is column Cols[i] when Cols is
// non-nil and that entry is set, else the constant Vals[i]. len(Vals) is
// the number of arguments; Cols, when set, has one entry per argument.
type Args struct {
	Vals []value.Value
	Cols []*tuple.Column
}

// Value returns argument i at row row.
func (a *Args) Value(i, row int) value.Value {
	if a.Cols != nil && a.Cols[i] != nil {
		return a.Cols[i].Value(row)
	}
	return a.Vals[i]
}

// Row boxes every argument at row into dst, reusing its storage.
func (a *Args) Row(row int, dst []value.Value) []value.Value {
	dst = dst[:0]
	for i := range a.Vals {
		dst = append(dst, a.Value(i, row))
	}
	return dst
}

// callOf is the Call derived from a Scan: the scan over the one row of
// constants args, TRUE when it passes.
func callOf(scan ScanFunc) func(state any, args []value.Value) (value.Value, error) {
	return func(state any, args []value.Value) (value.Value, error) {
		row, err := scan(state, Args{Vals: args}, 0, 1)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(row == 0), nil
	}
}

// Inclusion is implemented by sampling state blobs that can report the
// inclusion probability of a record with weight w under their current
// sampling decision — the π the Horvitz–Thompson estimator divides by.
// It is polled at window flush, after WindowFinal, when the sample is
// final for the closing window: subset-sum states report min(1, w/z)
// against the final threshold, reservoirs report min(1, n/seen), priority
// samples report min(1, w/τ). ok is false while the state cannot yet
// price inclusions (unconfigured, or before any threshold exists); the
// caller then treats the record as certainly included.
type Inclusion interface {
	Inclusion(w float64) (p float64, ok bool)
}

// Observable is implemented by state blobs that expose live gauges for
// telemetry: the operator polls it at window flush, recording each emitted
// (name, value) pair as a per-window series — the current subset-sum
// threshold, a reservoir's fill, a heavy-hitter bucket index. Emitting no
// pairs is fine; emit must not be retained past the call.
type Observable interface {
	Gauges(emit func(name string, v float64))
}

// Accumulator is one instance of a user-defined aggregate: it folds in one
// value per tuple of its group and reports the aggregate at output time.
// (It is structurally identical to the built-in aggregate interface.)
type Accumulator interface {
	Update(v value.Value)
	Value() value.Value
}

// AggFunc declares a user-defined aggregate function (UDAF). The paper's
// §8 identifies UDAFs layered on the sampling operator as the right host
// for holistic algorithms — such as the Greenwald-Khanna quantile summary —
// whose inter-sample communication exceeds the operator's per-sample
// structure.
type AggFunc struct {
	// Name is the call name, case-insensitive. It must not collide with
	// a built-in aggregate.
	Name string
	// New creates an accumulator for a new group; consts are the literal
	// arguments after the first (e.g. quantile(x, 0.5) passes [0.5]).
	New func(consts []value.Value) (Accumulator, error)
}

// Registry holds the state types, functions and user-defined aggregates
// available to queries.
type Registry struct {
	states map[string]*StateType
	funcs  map[string]*Func
	aggs   map[string]*AggFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		states: make(map[string]*StateType),
		funcs:  make(map[string]*Func),
		aggs:   make(map[string]*AggFunc),
	}
}

// RegisterAgg adds a user-defined aggregate; duplicate names (also against
// functions) are an error.
func (r *Registry) RegisterAgg(a *AggFunc) error {
	if a.Name == "" || a.New == nil {
		return fmt.Errorf("sfun: aggregate needs a name and a New constructor")
	}
	key := strings.ToLower(a.Name)
	if _, dup := r.aggs[key]; dup {
		return fmt.Errorf("sfun: aggregate %q already registered", a.Name)
	}
	if _, dup := r.funcs[key]; dup {
		return fmt.Errorf("sfun: aggregate %q collides with a registered function", a.Name)
	}
	r.aggs[key] = a
	return nil
}

// Agg looks up a user-defined aggregate by name (case-insensitive).
func (r *Registry) Agg(name string) (*AggFunc, bool) {
	a, ok := r.aggs[strings.ToLower(name)]
	return a, ok
}

// MustRegisterAgg is RegisterAgg that panics on error.
func (r *Registry) MustRegisterAgg(a *AggFunc) {
	if err := r.RegisterAgg(a); err != nil {
		panic(err)
	}
}

// RegisterState adds a state type; duplicate names are an error.
func (r *Registry) RegisterState(st *StateType) error {
	if st.Name == "" || st.Init == nil {
		return fmt.Errorf("sfun: state type needs a name and an Init function")
	}
	if (st.Encode == nil) != (st.Decode == nil) {
		return fmt.Errorf("sfun: state %q must set Encode and Decode together", st.Name)
	}
	if (st.EncodeShared == nil) != (st.DecodeShared == nil) {
		return fmt.Errorf("sfun: state %q must set EncodeShared and DecodeShared together", st.Name)
	}
	key := strings.ToLower(st.Name)
	if _, dup := r.states[key]; dup {
		return fmt.Errorf("sfun: state %q already registered", st.Name)
	}
	r.states[key] = st
	return nil
}

// RegisterFunc adds a function; its state (if any) must already be
// registered, and duplicate names are an error. A function gives a Call or
// a Scan, not both: for a Scan, the Call registered is derived from it.
func (r *Registry) RegisterFunc(f *Func) error {
	if f.Name == "" || (f.Call == nil) == (f.Scan == nil) {
		return fmt.Errorf("sfun: function needs a name and one of a Call or a Scan implementation")
	}
	key := strings.ToLower(f.Name)
	if _, dup := r.funcs[key]; dup {
		return fmt.Errorf("sfun: function %q already registered", f.Name)
	}
	if _, dup := r.aggs[key]; dup {
		return fmt.Errorf("sfun: function %q collides with a registered aggregate", f.Name)
	}
	if f.State != "" {
		if _, ok := r.states[strings.ToLower(f.State)]; !ok {
			return fmt.Errorf("sfun: function %q references unregistered state %q", f.Name, f.State)
		}
	}
	if f.Scan != nil {
		derived := *f
		derived.Call = callOf(f.Scan)
		f = &derived
	}
	r.funcs[key] = f
	return nil
}

// Func looks up a function by name (case-insensitive).
func (r *Registry) Func(name string) (*Func, bool) {
	f, ok := r.funcs[strings.ToLower(name)]
	return f, ok
}

// State looks up a state type by name (case-insensitive).
func (r *Registry) State(name string) (*StateType, bool) {
	st, ok := r.states[strings.ToLower(name)]
	return st, ok
}

// MustRegisterState is RegisterState that panics on error, for static
// library registration.
func (r *Registry) MustRegisterState(st *StateType) {
	if err := r.RegisterState(st); err != nil {
		panic(err)
	}
}

// MustRegisterFunc is RegisterFunc that panics on error.
func (r *Registry) MustRegisterFunc(f *Func) {
	if err := r.RegisterFunc(f); err != nil {
		panic(err)
	}
}
