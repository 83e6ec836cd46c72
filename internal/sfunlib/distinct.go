package sfunlib

import (
	"fmt"

	"streamop/internal/sample/distinct"
	"streamop/internal/sfun"
	"streamop/internal/value"
)

// DistinctStateName is the STATE shared by the ds* function family:
// Gibbons' distinct sampling run through the operator. Groups are keyed by
// the hashed value (H(x) as HX); the state holds only the sampling level
// and capacity — the sample itself is the operator's group table.
//
// Query shape:
//
//	SELECT tb, HX, count(*), dsscale()
//	FROM PKT
//	WHERE dsample(HX, 512) = TRUE
//	GROUP BY time/60 as tb, H(destIP) as HX
//	CLEANING WHEN dsdo_clean(count_distinct$(*)) = TRUE
//	CLEANING BY dskeep(HX) = TRUE
//
// The output is a uniform sample of distinct destinations with exact
// occurrence counts; count_distinct$(*) * dsscale() estimates the number
// of distinct destinations.
const DistinctStateName = "distinct_sampling_state"

type dsState struct {
	configured bool
	capacity   int
	level      uint
}

// Gauges implements sfun.Observable: the sampling level and the number of
// distinct values each retained hash represents (2^level).
func (s *dsState) Gauges(emit func(string, float64)) {
	emit("level", float64(s.level))
	emit("scale", float64(uint64(1)<<s.level))
}

// qualifies is dsample's admission and dskeep, called as fn: whether the
// hash argument qualifies at the current level.
func (s *dsState) qualifies(fn string, args []value.Value) (value.Value, error) {
	h, err := tagArg(fn, args, 0)
	if err != nil {
		return value.Value{}, err
	}
	return value.NewBool(distinct.Qualifies(h, s.level)), nil
}

func registerDistinct(reg *sfun.Registry, _ uint64) error {
	// The sample restarts each window at level 0; only the capacity
	// carries over.
	init := func(o *dsState) *dsState {
		if o == nil || !o.configured {
			return &dsState{}
		}
		return &dsState{configured: true, capacity: o.capacity}
	}
	return family(reg, sfun.StateType{Name: DistinctStateName}, init, encodeDS, decodeDS, []fn[dsState]{
		{
			// dsample(hx, capacity) admits values whose hash qualifies at
			// the current sampling level.
			name: "dsample",
			call: func(s *dsState, args []value.Value) (value.Value, error) {
				if !s.configured {
					c, err := intArg("dsample", args, 1)
					if err != nil {
						return value.Value{}, err
					}
					if c < 1 {
						return value.Value{}, fmt.Errorf("dsample: capacity must be >= 1, got %d", c)
					}
					s.capacity = int(c)
					s.configured = true
				}
				return s.qualifies("dsample", args)
			},
		},
		{
			// dsdo_clean raises the level when the sample overflows.
			name: "dsdo_clean",
			scan: countScan("dsdo_clean", DistinctStateName, func(s *dsState, cnt int64) bool {
				if !s.configured || int(cnt) <= s.capacity {
					return false
				}
				s.level++
				return true
			}),
		},
		{
			// dskeep(hx) keeps the values still qualifying after a level
			// raise.
			name: "dskeep",
			call: func(s *dsState, args []value.Value) (value.Value, error) {
				return s.qualifies("dskeep", args)
			},
		},
		{
			// dsscale returns 2^level, the number of distinct values each
			// sampled value represents.
			name: "dsscale",
			call: func(s *dsState, _ []value.Value) (value.Value, error) {
				return value.NewUint(uint64(1) << s.level), nil
			},
		},
	})
}
