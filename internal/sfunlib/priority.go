package sfunlib

import (
	"fmt"

	"streamop/internal/sample/priority"
	"streamop/internal/sfun"
	"streamop/internal/value"
)

// PriorityStateName is the STATE shared by the ps* function family:
// priority sampling (Duffield-Lund-Thorup's successor to the threshold
// sampling the paper runs) expressed through the sampling operator — a
// demonstration that the operator hosts algorithms published *after* it.
//
// Query shape (each tuple its own group via uts; adjusted weight
// max(w, tau) read at output time):
//
//	SELECT tb, uts, srcIP, UMAX(sum(len), pstau()) AS adjlen
//	FROM PKT
//	WHERE psample(uts, len, 1000) = TRUE
//	GROUP BY time/20 as tb, srcIP, uts
//	HAVING pskeep(uts) = TRUE
//	CLEANING WHEN psdo_clean(count_distinct$(*)) = TRUE
//	CLEANING BY pskeep(uts) = TRUE
//
// Like the rs* family, the state keeps the exact k-highest-priority tag
// set; displaced groups linger until a cleaning phase (or HAVING) evicts
// them.
const PriorityStateName = "priority_sampling_state"

// psState is a priority.Sampler over record tags plus the set of tags it
// holds. K is 0 until the first psample configures the state.
type psState struct {
	priority.Sampler[uint64]
	tags map[uint64]bool // the sample's members
}

// Gauges implements sfun.Observable: the k-set occupancy and the
// priority threshold tau that scales the estimator.
func (s *psState) Gauges(emit func(string, float64)) {
	emit("sample_fill", float64(len(s.Items)))
	emit("tau", s.Tau)
}

// Inclusion implements sfun.Inclusion: in priority sampling a record of
// weight w survives into the k-set with probability min(1, w/τ) against
// the threshold τ (the (k+1)-st largest priority). τ = 0 means the k-set
// never overflowed — every record is still present with certainty.
func (s *psState) Inclusion(w float64) (float64, bool) {
	if s.K == 0 {
		return 0, false
	}
	if s.Tau <= 0 || w >= s.Tau {
		return 1, true
	}
	return w / s.Tau, true
}

func registerPriority(reg *sfun.Registry, seed uint64) error {
	st := sfun.StateType{Name: PriorityStateName}
	instance := instances(&st)
	// The sample restarts each window; only k carries over.
	init := func(o *psState) *psState {
		s := &psState{
			Sampler: priority.Sampler[uint64]{Rng: instanceRng(seed, instance.Add(1), psSeedMul)},
			tags:    map[uint64]bool{},
		}
		if o != nil {
			s.K = o.K
		}
		return s
	}
	return family(reg, st, init, encodePS, decodePS, []fn[psState]{
		{
			// psample(tag, w, k) admits the record when its priority w/u
			// enters the k highest, displacing the current minimum.
			name: "psample",
			call: func(s *psState, args []value.Value) (value.Value, error) {
				if s.K == 0 {
					k, err := intArg("psample", args, 2)
					if err != nil {
						return value.Value{}, err
					}
					if k < 1 {
						return value.Value{}, fmt.Errorf("psample: k must be >= 1, got %d", k)
					}
					s.K = int(k)
				}
				tag, err := tagArg("psample", args, 0)
				if err != nil {
					return value.Value{}, err
				}
				w, err := numArg("psample", args, 1)
				if err != nil {
					return value.Value{}, err
				}
				in, evicted, displaced := s.Offer(w, tag)
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
			// pskeep(tag) keeps exactly the current k-highest-priority
			// members; serves as both CLEANING BY and HAVING.
			name: "pskeep",
			call: func(s *psState, args []value.Value) (value.Value, error) {
				tag, err := tagArg("pskeep", args, 0)
				if err != nil {
					return value.Value{}, err
				}
				return value.NewBool(s.tags[tag]), nil
			},
		},
		{
			// psdo_clean triggers eviction of displaced groups once they
			// outnumber the sample 2:1.
			name: "psdo_clean",
			scan: countScan("psdo_clean", PriorityStateName, func(s *psState, cnt int64) bool {
				return s.K > 0 && int(cnt) > 2*s.K
			}),
		},
		{
			// pstau returns the threshold tau; UMAX(sum(len), pstau()) is
			// the unbiased adjusted weight at output time.
			name: "pstau",
			call: func(s *psState, _ []value.Value) (value.Value, error) {
				return value.NewFloat(s.Tau), nil
			},
		},
	})
}
