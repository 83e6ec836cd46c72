// Package sfunlib registers the runtime-library functions the paper's
// queries rely on: the subset-sum family (ssample, ssthreshold, ssdo_clean,
// ssclean_with, ssfinal_clean) and its basic selection predicate bssample,
// the reservoir family (rsample, rsdo_clean, rsclean_with, rsfinal_clean),
// the priority family (psample, pskeep, psdo_clean, pstau), the distinct
// family (dsample, dsdo_clean, dskeep, dsscale), the heavy-hitter helpers
// (local_count, current_bucket) and the stateless scalars UMAX, UMIN and H.
//
// These are the "functions written by the algorithmic expert following a
// simple API" of the paper's introduction: each family shares one STATE
// allocated per supergroup by the operator, with old-window state handoff.
// Every sampling family's state wraps its internal/sample package — the
// algorithm is written once there — and adds only the record tags and the
// operator's cleaning protocol. A family is written against its own state
// type and registered with family, which binds it to sfun's untyped API:
//
//	family(reg, sfun.StateType{Name: DistinctStateName},
//		func(old *dsState) *dsState { ... },       // Init; old is nil in a new supergroup
//		func(s *dsState, e *checkpoint.Encoder) { ... },
//		func(d *checkpoint.Decoder) *dsState { ... },
//		[]fn[dsState]{
//			{name: "dsscale", call: func(s *dsState, _ []value.Value) (value.Value, error) {
//				return value.NewUint(uint64(1) << s.level), nil
//			}},
//		})
package sfunlib

import (
	"fmt"
	"math"
	"sync/atomic"

	"streamop/internal/checkpoint"
	"streamop/internal/sfun"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// Register adds every library state and function to reg. seed makes the
// randomized families (reservoir and priority sampling) deterministic:
// the k-th state a family creates draws from instanceRng(seed, k, mul)
// with the family's multiplier.
func Register(reg *sfun.Registry, seed uint64) error {
	for _, register := range []func(*sfun.Registry, uint64) error{
		registerScalars, registerSubsetSum, registerBasicSubsetSum,
		registerReservoir, registerHeavyHitter, registerPriority, registerDistinct,
	} {
		if err := register(reg, seed); err != nil {
			return err
		}
	}
	return nil
}

// fn is one function of a family, written against the family's state S.
// It gives a call or, for a predicate, a scan (see sfun.Func): a scan
// takes the state untyped and asserts it itself, so its loop over rows
// runs without an adapter in between.
type fn[S any] struct {
	name string
	call func(s *S, args []value.Value) (value.Value, error)
	scan sfun.ScanFunc
}

// family registers st, whose Init, Encode and Decode it builds from init,
// enc and dec, and funcs, each bound to st. init receives the previous
// window's state, nil for a new supergroup; a decode fails with the
// decoder's error. A state of another type than S is refused.
func family[S any](reg *sfun.Registry, st sfun.StateType, init func(old *S) *S,
	enc func(*S, *checkpoint.Encoder), dec func(*checkpoint.Decoder) *S, funcs []fn[S]) error {
	st.Init = func(old any) any {
		o, _ := old.(*S)
		return init(o)
	}
	st.Encode = func(state any, e *checkpoint.Encoder) error {
		s, ok := state.(*S)
		if !ok {
			return wrongState(st.Name, state)
		}
		enc(s, e)
		return nil
	}
	st.Decode = func(d *checkpoint.Decoder) (any, error) {
		s := dec(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := reg.RegisterState(&st); err != nil {
		return err
	}
	for _, f := range funcs {
		sf := &sfun.Func{Name: f.name, State: st.Name, Scan: f.scan}
		if call := f.call; call != nil {
			sf.Call = func(state any, args []value.Value) (value.Value, error) {
				s, ok := state.(*S)
				if !ok {
					return value.Value{}, wrongState(st.Name, state)
				}
				return call(s, args)
			}
		}
		if err := reg.RegisterFunc(sf); err != nil {
			return err
		}
	}
	return nil
}

// wrongState is the error for a state of another family's type.
func wrongState(name string, state any) error {
	return fmt.Errorf("%s: wrong state type %T", name, state)
}

// Seed multipliers of the randomized families (see instanceRng).
const (
	rsSeedMul = 0x9e3779b97f4a7c15
	psSeedMul = 0xd1b54a32d192ed03
)

// instanceRng is the generator of the k-th state of a randomized family:
// seed ^ k*mul, so every state draws an independent deterministic stream.
func instanceRng(seed, k, mul uint64) *xrand.Rand { return xrand.New(seed ^ (k * mul)) }

// instances is the count of states a randomized family has created, the k
// of instanceRng, made st's shared checkpoint context: restoring it keeps
// the supergroups created after a resume on the seeds an uninterrupted run
// would have drawn.
func instances(st *sfun.StateType) *atomic.Uint64 {
	var n atomic.Uint64
	st.EncodeShared = func(e *checkpoint.Encoder) { e.U64(n.Load()) }
	st.DecodeShared = func(d *checkpoint.Decoder) error {
		n.Store(d.U64())
		return d.Err()
	}
	return &n
}

// Default returns a registry with the full library registered.
func Default(seed uint64) *sfun.Registry {
	reg := sfun.NewRegistry()
	if err := Register(reg, seed); err != nil {
		panic(err) // static registrations cannot conflict in a fresh registry
	}
	return reg
}

func registerScalars(reg *sfun.Registry, _ uint64) error {
	for _, f := range []sfun.Func{pick("UMAX", true), pick("UMIN", false), {
		// H hashes its argument to a uniform 64-bit value; an optional
		// second argument seeds the hash (distinct min-hash signatures).
		Name: "H",
		Call: func(_ any, args []value.Value) (value.Value, error) {
			switch len(args) {
			case 1:
				return value.NewUint(value.Hash(args[0], 0x5eed)), nil
			case 2:
				if !args[1].Kind().Numeric() {
					return value.Value{}, fmt.Errorf("H seed must be numeric")
				}
				return value.NewUint(value.Hash(args[0], args[1].AsUint())), nil
			default:
				return value.Value{}, fmt.Errorf("H takes 1 or 2 arguments, got %d", len(args))
			}
		},
	}} {
		if err := reg.RegisterFunc(&f); err != nil {
			return err
		}
	}
	return nil
}

// pick is UMAX (greater) or UMIN: the greater or the lesser of its two
// arguments, the first on a tie.
func pick(name string, greater bool) sfun.Func {
	return sfun.Func{Name: name, Call: func(_ any, args []value.Value) (value.Value, error) {
		if len(args) != 2 {
			return value.Value{}, fmt.Errorf("%s takes 2 arguments, got %d", name, len(args))
		}
		if c := value.Compare(args[0], args[1]); c == 0 || (c > 0) == greater {
			return args[0], nil
		}
		return args[1], nil
	}}
}

// numArg extracts a float argument with a helpful error.
func numArg(fn string, args []value.Value, i int) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("%s: missing argument %d", fn, i+1)
	}
	if !args[i].Kind().Numeric() {
		return 0, fmt.Errorf("%s: argument %d must be numeric, got %s", fn, i+1, args[i].Kind())
	}
	return args[i].AsFloat(), nil
}

// numAt is numArg for argument i of a scan at row.
func numAt(fn string, args *sfun.Args, i, row int) (float64, error) {
	if i >= len(args.Vals) {
		return numArg(fn, args.Vals, i) // the missing-argument error
	}
	v := args.Value(i, row)
	if !v.Kind().Numeric() {
		return 0, fmt.Errorf("%s: argument %d must be numeric, got %s", fn, i+1, v.Kind())
	}
	return v.AsFloat(), nil
}

func intArg(fn string, args []value.Value, i int) (int64, error) {
	f, err := numArg(fn, args, i)
	if err != nil {
		return 0, err
	}
	return int64(f), nil
}

// countScan is a CLEANING WHEN predicate of family state over one count
// argument, count_distinct$(*) in the paper's queries: fire decides, and
// may act on, whether state s at count cnt cleans. The count is read as
// intArg reads it, and refused as it refuses it.
func countScan[S any](name, state string, fire func(s *S, cnt int64) bool) sfun.ScanFunc {
	return func(st any, args sfun.Args, from, to int) (int, error) {
		s, ok := st.(*S)
		if !ok {
			return from, wrongState(state, st)
		}
		var cnt num
		cnt.of(&args, 0)
		for row := from; row < to; row++ {
			c, ok := cnt.at(row)
			if !ok {
				var err error
				if c, err = numAt(name, &args, 0, row); err != nil {
					return row, err
				}
			}
			if fire(s, int64(c)) {
				return row, nil
			}
		}
		return to, nil
	}
}

// num reads a numeric argument of a scan row by row where that is one
// load: a kind-uniform Int, Uint or Float column straight from its words,
// a numeric constant as itself. Any other argument — a mixed-kind column,
// a NULL, String or Bool, a missing one — at does not read, and the scan
// reads or refuses it through numAt, row by row.
type num struct {
	mode value.Kind // Int, Uint, Float: bits; numConst: c; Null: numAt
	bits []uint64
	c    float64
}

// numConst is num's mode for a numeric constant.
const numConst = value.Bool

// of points n at argument i of args. (It works in place and reads args'
// fields one by one: copying either struct whole costs more than the rest
// of a short scan.)
func (n *num) of(args *sfun.Args, i int) {
	if i >= len(args.Vals) {
		return
	}
	if args.Cols != nil && args.Cols[i] != nil {
		c := args.Cols[i]
		if k, ok := c.Uniform(); ok && k.Numeric() {
			n.mode, n.bits = k, c.Bits()
		}
	} else if v := &args.Vals[i]; v.Kind().Numeric() {
		n.mode, n.c = numConst, v.AsFloat()
	}
}

// at returns the argument at row as a float, or false when it does not
// read it.
func (n *num) at(row int) (float64, bool) {
	switch n.mode {
	case value.Int:
		return float64(int64(n.bits[row])), true
	case value.Float:
		return math.Float64frombits(n.bits[row]), true
	case value.Uint:
		return float64(n.bits[row]), true
	case numConst:
		return n.c, true
	}
	return 0, false
}
