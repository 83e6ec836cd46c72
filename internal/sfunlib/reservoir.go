package sfunlib

import (
	"fmt"

	"streamop/internal/sample/reservoir"
	"streamop/internal/sfun"
	"streamop/internal/value"
)

// ReservoirStateName is the STATE shared by the rs* function family.
const ReservoirStateName = "reservoir_sampling_state"

// rsState realizes reservoir sampling through the operator: a
// reservoir.Reservoir over record tags — the uts values that make each
// tuple its own group — plus the set of tags it holds and the candidate
// tolerance. rsample returns TRUE whenever a record enters the reservoir,
// so its group is created; the group whose tag was displaced lingers as a
// stale candidate until a cleaning phase evicts it. rsclean_with and
// rsfinal_clean keep exactly the groups whose tag is currently in the
// reservoir, so the window's final sample is the exact reservoir — a
// uniform n-subset of the window's records.
//
// This defers the deletion of replaced candidates to the cleaning phase,
// which is precisely the paper's §4.1/§6.6 structure (candidates
// accumulate to tolerance*n, then a cleaning subsamples n of them), while
// avoiding the early-record bias a naive buffered variant would have. N is
// 0 until the first rsample configures the state.
type rsState struct {
	reservoir.Reservoir[uint64]
	tol  float64
	tags map[uint64]bool // the reservoir's members
}

// Gauges implements sfun.Observable: reservoir occupancy against its
// target plus the records offered this window.
func (s *rsState) Gauges(emit func(string, float64)) {
	emit("reservoir_fill", float64(len(s.Items)))
	emit("reservoir_target", float64(s.N))
	emit("records_seen", float64(s.Seen))
}

// Inclusion implements sfun.Inclusion: uniform reservoir sampling keeps
// each of the `seen` offered records with equal probability min(1, n/seen)
// regardless of weight, so w is ignored.
func (s *rsState) Inclusion(float64) (float64, bool) {
	if s.N == 0 || s.Seen <= 0 {
		return 0, false
	}
	if s.Seen <= int64(s.N) {
		return 1, true
	}
	return float64(s.N) / float64(s.Seen), true
}

// configure handles rsample(tag, n [, tolerance]).
func (s *rsState) configure(args []value.Value) error {
	n, err := intArg("rsample", args, 1)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("rsample: sample size must be >= 1, got %d", n)
	}
	tol := 20.0 // the paper bounds T to (10, 40)
	if len(args) > 2 {
		if tol, err = numArg("rsample", args, 2); err != nil {
			return err
		}
		if tol <= 1 {
			return fmt.Errorf("rsample: tolerance must exceed 1, got %v", tol)
		}
	}
	if len(args) > 3 {
		return fmt.Errorf("rsample takes at most 3 arguments, got %d", len(args))
	}
	s.N, s.tol = int(n), tol
	s.tags = make(map[uint64]bool, s.N)
	return nil
}

func tagArg(fn string, args []value.Value, i int) (uint64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("%s: missing tag argument (pass the record's uts)", fn)
	}
	if !args[i].Kind().Numeric() {
		return 0, fmt.Errorf("%s: tag must be numeric, got %s", fn, args[i].Kind())
	}
	return args[i].AsUint(), nil
}

// rsKeep is rsclean_with and rsfinal_clean, as name: name(tag) is TRUE
// for exactly the current reservoir members. In CLEANING BY it evicts the
// displaced candidates; in HAVING it selects the final sample, the exact
// reservoir.
func rsKeep(name string) fn[rsState] {
	return fn[rsState]{name: name, call: func(s *rsState, args []value.Value) (value.Value, error) {
		tag, err := tagArg(name, args, 0)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(s.tags[tag]), nil
	}}
}

func registerReservoir(reg *sfun.Registry, seed uint64) error {
	st := sfun.StateType{Name: ReservoirStateName}
	instance := instances(&st)
	init := func(o *rsState) *rsState {
		s := &rsState{Reservoir: reservoir.Reservoir[uint64]{
			Rng:  instanceRng(seed, instance.Add(1), rsSeedMul),
			Skip: -1,
		}}
		if o != nil && o.N > 0 {
			// The sample restarts each window; only configuration
			// carries over.
			s.N = o.N
			s.tol = o.tol
			s.tags = make(map[uint64]bool, s.N)
		}
		return s
	}
	return family(reg, st, init, encodeRS, decodeRS, []fn[rsState]{
		{
			// rsample(tag, n [, T]) admits the record into the reservoir
			// with probability n/t, displacing a random earlier member.
			name: "rsample",
			call: func(s *rsState, args []value.Value) (value.Value, error) {
				if s.N == 0 {
					if err := s.configure(args); err != nil {
						return value.Value{}, err
					}
				}
				tag, err := tagArg("rsample", args, 0)
				if err != nil {
					return value.Value{}, err
				}
				in, evicted, displaced := s.Offer(tag)
				if displaced {
					delete(s.tags, evicted)
				}
				if in {
					s.tags[tag] = true
				}
				return value.NewBool(in), nil
			},
		},
		{
			// rsdo_clean triggers cleaning when accumulated candidates
			// (live + displaced) exceed T*n.
			name: "rsdo_clean",
			scan: countScan("rsdo_clean", ReservoirStateName, func(s *rsState, cnt int64) bool {
				return s.N > 0 && float64(cnt) > s.tol*float64(s.N)
			}),
		},
		rsKeep("rsclean_with"),
		rsKeep("rsfinal_clean"),
	})
}
