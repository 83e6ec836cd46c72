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
// operator's cleaning protocol.
package sfunlib

import (
	"fmt"
	"math"

	"streamop/internal/sfun"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// Register adds every library state and function to reg. seed makes the
// randomized families (reservoir and priority sampling) deterministic:
// the k-th state a family creates draws from instanceRng(seed, k, mul)
// with the family's multiplier.
func Register(reg *sfun.Registry, seed uint64) error {
	if err := registerScalars(reg); err != nil {
		return err
	}
	if err := registerSubsetSum(reg); err != nil {
		return err
	}
	if err := registerBasicSubsetSum(reg); err != nil {
		return err
	}
	if err := registerReservoir(reg, seed); err != nil {
		return err
	}
	if err := registerHeavyHitter(reg); err != nil {
		return err
	}
	if err := registerPriority(reg, seed); err != nil {
		return err
	}
	return registerDistinct(reg)
}

// Seed multipliers of the randomized families (see instanceRng).
const (
	rsSeedMul = 0x9e3779b97f4a7c15
	psSeedMul = 0xd1b54a32d192ed03
)

// instanceRng is the generator of the k-th state of a randomized family:
// seed ^ k*mul, so every state draws an independent deterministic stream.
func instanceRng(seed, k, mul uint64) *xrand.Rand { return xrand.New(seed ^ (k * mul)) }

// Default returns a registry with the full library registered.
func Default(seed uint64) *sfun.Registry {
	reg := sfun.NewRegistry()
	if err := Register(reg, seed); err != nil {
		panic(err) // static registrations cannot conflict in a fresh registry
	}
	return reg
}

func registerScalars(reg *sfun.Registry) error {
	scalars := []sfun.Func{
		{
			Name: "UMAX",
			Call: func(_ any, args []value.Value) (value.Value, error) {
				if len(args) != 2 {
					return value.Value{}, fmt.Errorf("UMAX takes 2 arguments, got %d", len(args))
				}
				if value.Compare(args[0], args[1]) >= 0 {
					return args[0], nil
				}
				return args[1], nil
			},
		},
		{
			Name: "UMIN",
			Call: func(_ any, args []value.Value) (value.Value, error) {
				if len(args) != 2 {
					return value.Value{}, fmt.Errorf("UMIN takes 2 arguments, got %d", len(args))
				}
				if value.Compare(args[0], args[1]) <= 0 {
					return args[0], nil
				}
				return args[1], nil
			},
		},
		{
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
		},
	}
	for i := range scalars {
		if err := reg.RegisterFunc(&scalars[i]); err != nil {
			return err
		}
	}
	return nil
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
