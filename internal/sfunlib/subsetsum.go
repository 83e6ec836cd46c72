package sfunlib

import (
	"fmt"

	"streamop/internal/sample/subsetsum"
	"streamop/internal/sfun"
	"streamop/internal/value"
)

// SubsetSumStateName is the STATE shared by the ss* function family.
const SubsetSumStateName = "subsetsum_sampling_state"

// ssState is the per-supergroup control state of dynamic subset-sum
// sampling as run inside the operator: subsetsum's threshold control plus
// the query's configuration. Unlike the standalone subsetsum.Dynamic, the
// samples themselves live in the operator's group table.
type ssState struct {
	subsetsum.Threshold
	configured bool
	n          int     // target sample size N
	theta      float64 // cleaning trigger multiplier
	relax      float64 // f: carried threshold is z/f

	// Final-subsample bookkeeping (HAVING pass).
	finalArmed    bool // WindowFinal fired; first ssfinal_clean prepares
	finalPrepared bool
	subsampling   bool
}

// Gauges implements sfun.Observable: the threshold trajectory is the
// quantity the paper's relaxation argument (§5.2) is about, so it is the
// headline telemetry series for subset-sum sampling.
func (s *ssState) Gauges(emit func(string, float64)) {
	emit("threshold", s.Z)
	emit("big_samples", float64(s.Big))
	emit("small_mass_counter", s.Counter)
	emit("cleanings_window", float64(s.Cleanings))
}

// Inclusion implements sfun.Inclusion: under (relaxed) dynamic subset-sum
// sampling a record of weight w is in the final sample with probability
// min(1, w/z) against the window's final threshold. Before configuration
// or while no threshold exists every admitted record is certain.
func (s *ssState) Inclusion(w float64) (float64, bool) {
	if !s.configured || s.Z <= 0 {
		return 0, false
	}
	if w >= s.Z {
		return 1, true
	}
	return w / s.Z, true
}

// Configuration argument layout of ssample:
//
//	ssample(len, N [, theta [, relax [, z0]]])
func (s *ssState) configure(args []value.Value) error {
	n, err := intArg("ssample", args, 1)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("ssample: sample size must be >= 1, got %d", n)
	}
	s.n = int(n)
	s.theta = 2
	s.relax = 1
	z0 := 1.0
	if len(args) > 2 {
		if s.theta, err = numArg("ssample", args, 2); err != nil {
			return err
		}
		if s.theta <= 1 {
			return fmt.Errorf("ssample: theta must exceed 1, got %v", s.theta)
		}
	}
	if len(args) > 3 {
		if s.relax, err = numArg("ssample", args, 3); err != nil {
			return err
		}
		if s.relax < 1 {
			return fmt.Errorf("ssample: relax factor must be >= 1, got %v", s.relax)
		}
	}
	if len(args) > 4 {
		if z0, err = numArg("ssample", args, 4); err != nil {
			return err
		}
		if z0 <= 0 {
			return fmt.Errorf("ssample: initial threshold must be positive, got %v", z0)
		}
	}
	if len(args) > 5 {
		return fmt.Errorf("ssample takes at most 5 arguments, got %d", len(args))
	}
	if s.Z == 0 { // fresh state (no carried threshold)
		s.Z = z0
	}
	s.configured = true
	return nil
}

func registerSubsetSum(reg *sfun.Registry, _ uint64) error {
	st := sfun.StateType{
		Name: SubsetSumStateName,
		WindowFinal: func(state any) {
			if s, ok := state.(*ssState); ok {
				s.finalArmed = true
				s.finalPrepared = false
			}
		},
	}
	init := func(o *ssState) *ssState {
		if o == nil || !o.configured {
			return &ssState{}
		}
		// Threshold carry-over with the paper's relaxation: the next
		// window's load is estimated as 1/f of this one's.
		return &ssState{
			Threshold:  o.Carry(o.relax, 1),
			configured: true,
			n:          o.n,
			theta:      o.theta,
			relax:      o.relax,
		}
	}
	return family(reg, st, init, encodeSS, decodeSS, []fn[ssState]{
		{
			// ssample is the loose admission predicate: basic subset-sum
			// sampling at the current threshold.
			name: "ssample",
			scan: func(state any, args sfun.Args, from, to int) (int, error) {
				s, ok := state.(*ssState)
				if !ok {
					return from, wrongState(SubsetSumStateName, state)
				}
				var err error
				var w num
				w.of(&args, 0)
				for row := from; row < to; row++ {
					if !s.configured {
						if err := s.configure(args.Row(row, nil)); err != nil {
							return row, err
						}
					}
					x, ok := w.at(row)
					if !ok {
						if x, err = numAt("ssample", &args, 0, row); err != nil {
							return row, err
						}
					}
					if s.Admit(x) {
						return row, nil
					}
				}
				return to, nil
			},
		},
		{
			// ssthreshold returns the current threshold z; output rows use
			// UMAX(sum(len), ssthreshold()) as the adjusted weight.
			name: "ssthreshold",
			call: func(s *ssState, _ []value.Value) (value.Value, error) {
				return value.NewFloat(s.Z), nil
			},
		},
		{
			// ssdo_clean triggers the cleaning phase when the sample has
			// grown beyond theta*N, adjusting the threshold aggressively.
			name: "ssdo_clean",
			scan: countScan("ssdo_clean", SubsetSumStateName, func(s *ssState, cnt int64) bool {
				if !s.configured || float64(cnt) <= s.theta*float64(s.n) {
					return false
				}
				s.BeginClean(int(cnt), s.n)
				return true
			}),
		},
		{
			// ssclean_with is the per-group cleaning predicate: basic
			// subset-sum sampling at the adjusted threshold, with sizes
			// below the pre-adjustment threshold promoted to it (§6.5).
			name: "ssclean_with",
			scan: func(state any, args sfun.Args, from, to int) (int, error) {
				s, ok := state.(*ssState)
				if !ok {
					return from, wrongState(SubsetSumStateName, state)
				}
				var err error
				var w num
				w.of(&args, 0)
				for row := from; row < to; row++ {
					x, ok := w.at(row)
					if !ok {
						if x, err = numAt("ssclean_with", &args, 0, row); err != nil {
							return row, err
						}
					}
					if s.CleanKeep(x) {
						return row, nil
					}
				}
				return to, nil
			},
		},
		{
			// ssfinal_clean runs at the window border: if more than N
			// samples remain it adjusts the threshold once and applies the
			// cleaning predicate to each group; otherwise every group is
			// sampled.
			name: "ssfinal_clean",
			scan: func(state any, args sfun.Args, from, to int) (int, error) {
				s, ok := state.(*ssState)
				if !ok {
					return from, wrongState(SubsetSumStateName, state)
				}
				var err error
				var w, cnt num
				w.of(&args, 0)
				cnt.of(&args, 1)
				for row := from; row < to; row++ {
					x, ok := w.at(row)
					if !ok {
						if x, err = numAt("ssfinal_clean", &args, 0, row); err != nil {
							return row, err
						}
					}
					c, ok := cnt.at(row)
					if !ok {
						if c, err = numAt("ssfinal_clean", &args, 1, row); err != nil {
							return row, err
						}
					}
					if s.finalArmed && !s.finalPrepared {
						s.finalPrepared = true
						s.subsampling = s.configured && int(int64(c)) > s.n
						if s.subsampling {
							s.BeginClean(int(int64(c)), s.n)
						}
					}
					if !s.subsampling || s.CleanKeep(x) {
						return row, nil
					}
				}
				return to, nil
			},
		},
	})
}

// BasicSubsetSumStateName is the STATE of bssample, the basic (fixed
// threshold) subset-sum predicate used as a UDF in selection queries —
// both the paper's Figure 5 comparison point and the low-level pushdown of
// Figure 6.
const BasicSubsetSumStateName = "basic_subsetsum_state"

// bssState runs subsetsum's threshold control at each call's z; only the
// admission counter matters from one call to the next.
type bssState struct {
	subsetsum.Threshold
}

func registerBasicSubsetSum(reg *sfun.Registry, _ uint64) error {
	init := func(*bssState) *bssState { return &bssState{} }
	return family(reg, sfun.StateType{Name: BasicSubsetSumStateName}, init, encodeBSS, decodeBSS, []fn[bssState]{{
		// bssample(len, z) is basic subset-sum sampling at threshold z.
		name: "bssample",
		scan: func(state any, args sfun.Args, from, to int) (int, error) {
			s, ok := state.(*bssState)
			if !ok {
				return from, wrongState(BasicSubsetSumStateName, state)
			}
			var err error
			var w, z num
			w.of(&args, 0)
			z.of(&args, 1)
			for row := from; row < to; row++ {
				x, ok := w.at(row)
				if !ok {
					if x, err = numAt("bssample", &args, 0, row); err != nil {
						return row, err
					}
				}
				zr, ok := z.at(row)
				if !ok {
					if zr, err = numAt("bssample", &args, 1, row); err != nil {
						return row, err
					}
				}
				if zr <= 0 {
					return row, fmt.Errorf("bssample: threshold must be positive, got %v", zr)
				}
				s.Z = zr
				if s.Admit(x) {
					return row, nil
				}
			}
			return to, nil
		},
	}})
}
